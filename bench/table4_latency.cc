/**
 * @file
 * Reproduces Table 4: "Average Latencies for Given Throughput
 * (four slots per buffer)" — blocking protocol, smart arbitration,
 * uniform traffic.  Latency is in clock cycles (12 per network
 * cycle, 36-clock unloaded floor for three stages); "saturated" is
 * the mean latency under full offered load, and the saturation
 * throughput is the delivered rate at that point.
 *
 * Headline claim: DAMQ's saturation throughput is ~40 % above
 * FIFO's at equal storage (paper: 0.70 vs 0.51).
 *
 * Runs on the SweepRunner (`--threads=N`); results are identical
 * at any thread count.  Emits BENCH_table4_latency.json beside the
 * text table.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/string_util.hh"
#include "runner/bench_output.hh"
#include "runner/sim_flags.hh"
#include "runner/table_benches.hh"

int
main(int argc, char **argv)
{
    using namespace damq;
    using namespace damq::bench;

    ArgParser args("table4_latency",
                   "Reproduce Table 4 (latency vs throughput at "
                   "four slots per buffer)");
    addCommonSimFlags(args);
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    banner("Table 4 - Average latency vs throughput (4 slots/buffer)",
           "64x64 Omega, blocking protocol, smart arbitration, "
           "uniform traffic; latency in clock cycles");

    Table4Options options;
    applyCommonSimFlags(args, options.base.common, "table4_latency");
    const Table4Data data = runTable4(runner, options);
    std::cout << renderTable4Text(data);

    std::cout
        << "\nPaper reference (Table 4):\n"
           "  buffer   0.25   0.30   0.40   0.50   saturated  "
           "sat.thru\n"
           "  FIFO    41.47  43.62  51.89  89.94    169.77     "
           "0.51\n"
           "  DAMQ    41.09  42.90  47.97  56.24    117.25     "
           "0.70\n"
           "  SAFC    42.59  45.02  52.33  63.71     82.12     "
           "0.54\n"
           "  SAMQ    43.62  46.82  57.39  75.61     94.62     "
           "0.50\n";

    std::cout << "\nHeadline: DAMQ saturation / FIFO saturation = "
              << formatFixed(data.saturationOf(BufferType::Damq) /
                                 data.saturationOf(BufferType::Fifo),
                             2)
              << "  (paper: 0.70/0.51 = 1.37)\n";

    {
        BenchJsonFile out("table4_latency");
        writeTable4Json(out.json(), data);
    }
    return 0;
}

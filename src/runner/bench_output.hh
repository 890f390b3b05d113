/**
 * @file
 * Shared plumbing for the bench executables' machine-readable
 * output: the BENCH_<name>.json result files.  (The shared
 * command-line options, --threads included, live in
 * runner/sim_flags.hh.)
 *
 * Two invariants the benches rely on:
 *
 *  - stdout carries exactly the text tables it always carried, so
 *    saved golden outputs keep matching byte for byte; everything
 *    this header adds (file-written notices) goes to stderr.
 *  - BENCH_<name>.json holds only simulation outputs — fully
 *    deterministic, identical at any --threads value.  Host timing
 *    is bench/perf's job (repeated, warmed-up runs), not theirs.
 */

#ifndef DAMQ_RUNNER_BENCH_OUTPUT_HH
#define DAMQ_RUNNER_BENCH_OUTPUT_HH

#include <fstream>
#include <string>

#include "common/json_writer.hh"
#include "network/core/workload.hh"

namespace damq {

/**
 * One BENCH_<name>.json document being written.  Opens
 * `BENCH_<bench>.json` in the working directory, emits the shared
 * preamble (`schema`, `bench`), and leaves the root object open
 * for the bench's own fields; the destructor closes the root
 * object and prints a notice on stderr.
 */
class BenchJsonFile
{
  public:
    /** Start BENCH_<bench>.json; fatal if the file can't open. */
    explicit BenchJsonFile(const std::string &bench);

    /** Close the root object and the file (destructor calls it). */
    ~BenchJsonFile();

    /** The writer, positioned inside the root object. */
    JsonWriter &json() { return writer; }

  private:
    std::string path;
    std::ofstream file;
    JsonWriter writer;
};

/**
 * Emit the shared "workload" descriptor object on @p json (which
 * must be positioned inside an open object): the injection-process
 * kind plus its kind-specific parameters, so every BENCH_*.json
 * names the traffic process that produced it.  The legacy
 * burstiness knobs are resolved exactly as the engine resolves
 * them — a geometric workload with @p legacy_burstiness > 1 is
 * reported as the two-state on/off process it becomes.
 */
void writeWorkloadJson(JsonWriter &json,
                       const core::WorkloadConfig &workload,
                       std::uint32_t traffic_classes = 1,
                       double legacy_burstiness = 1.0,
                       Cycle legacy_mean_burst_cycles = 8);

/**
 * Emit the shared end-to-end latency-tail fields of one simulation
 * result into the currently open row object: e2eLatencyP50 / P99 /
 * P999 (generation-to-delivery, measured-window packets only) and
 * the e2eSamples count they summarize.  Works for any result type
 * carrying the shared e2e members (NetworkResult, TorusResult,
 * MeshResult, ...).
 */
template <typename Result>
void
writeE2eLatencyJson(JsonWriter &json, const Result &r)
{
    json.field("e2eLatencyP50", r.e2eLatencyP50);
    json.field("e2eLatencyP99", r.e2eLatencyP99);
    json.field("e2eLatencyP999", r.e2eLatencyP999);
    json.field("e2eSamples", r.e2eSamples);
}

} // namespace damq

#endif // DAMQ_RUNNER_BENCH_OUTPUT_HH

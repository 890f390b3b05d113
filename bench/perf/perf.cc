/**
 * @file
 * bench/perf: the simulator benchmark.  One invocation runs one
 * pinned workload in its own process:
 *
 *  1. a warm-up repetition, discarded from the timings: every config
 *     is constructed at one shard and run() through its own
 *     schedule.  It is the only pass that sees the latency
 *     statistics, so it yields each config's full fingerprint (which
 *     run.py checks against fingerprints.json at the default seed)
 *     and the simulated outputs printed as the `model` block;
 *  2. timed repetitions (--reps, or as many as fit in --seconds),
 *     each constructing every config at one shard, warming it up,
 *     timing every step() of the measured window, draining and
 *     checking it.  Each run must reproduce the warm-up run's counts
 *     exactly;
 *  3. on torus32, and on every traced run, a pass of the first
 *     config at two shards, which must reproduce them too;
 *  4. with --trace, traced repetitions alternate with the untraced
 *     ones, followed by a pass with the audit and watchdog flipped
 *     and the layer replays; the per-layer metrics come from these
 *     and from the 2-shard pass.
 *
 * The end-to-end metrics are medians over the untraced timed
 * repetitions.  Results go to stdout and to a JSON file (schema
 * damq-perf-v2); bench/perf/run.py runs the workloads, checks the
 * fingerprints and merges their files.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <thread>

#include "common/arg_parser.hh"
#include "common/json_writer.hh"
#include "common/logging.hh"
#include "common/string_util.hh"
#include "perf.hh"
#include "span_trace.hh"

namespace {

using namespace damq;
using namespace damq::perf;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t n = v.size();
    std::sort(v.begin(), v.end());
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (const double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/** Median step time of a set of runs, in microseconds. */
double
stepUsP50(const std::vector<const SimRun *> &runs)
{
    std::vector<double> ns;
    for (const SimRun *run : runs)
        ns.insert(ns.end(), run->stepNs.begin(), run->stepNs.end());
    return median(std::move(ns)) / 1e3;
}

/** Mean step time of the audit cycles (or of the others), in us. */
double
auditStepUs(const SimRun &run, const SimCommonConfig &common,
            bool audit_cycles)
{
    std::vector<double> us;
    for (std::size_t i = 0; i < run.stepNs.size(); ++i) {
        const Cycle cycle = common.warmupCycles + i + 1;
        if ((cycle % common.auditEveryCycles == 0) == audit_cycles)
            us.push_back(run.stepNs[i] / 1e3);
    }
    return mean(us);
}

/**
 * Restrict the process, and the shard thread it will start, to the
 * last @p count CPUs it may run on, so that the scheduler does not
 * move the timed thread across the whole host.  Returns the CPUs
 * chosen, e.g. "2,3".
 */
std::string
pinToLastCpus(unsigned count)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return "any (affinity not set)";
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    std::string list;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && count > 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        CPU_SET(cpu, &chosen);
        list = std::to_string(cpu) + (list.empty() ? "" : ",") + list;
        --count;
    }
    if (sched_setaffinity(0, sizeof chosen, &chosen) != 0)
        return "any (affinity not set)";
    return list;
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** One named metric value with its unit and per-rep samples. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::vector<double> reps;
};

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::cout << title << "\n";
    for (const Metric &m : metrics)
        std::cout << "  " << std::left << std::setw(30) << m.name
                  << std::right << std::setw(16) << std::setprecision(6)
                  << m.value << " " << m.unit << "\n";
}

void
writeMetrics(JsonWriter &json, const char *key,
             const std::vector<Metric> &metrics)
{
    json.key(key);
    json.beginObject();
    for (const Metric &m : metrics) {
        json.key(m.name);
        json.beginObject();
        json.field("value", m.value);
        json.field("unit", m.unit);
        json.key("reps");
        json.beginArray();
        for (const double x : m.reps)
            json.value(x);
        json.endArray();
        json.endObject();
    }
    json.endObject();
}

/** The runs of one repetition, one per config. */
struct Rep
{
    std::vector<SimRun> runs;
};

/** Failure bookkeeping: runs attempted and runs that failed a gate. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void add(const std::string &where,
             const std::vector<std::string> &problems)
    {
        ++attempted;
        if (problems.empty())
            return;
        ++failed;
        for (const std::string &p : problems) {
            failures.push_back(where + ": " + p);
            std::cerr << "perf: FAILED " << where << ": " << p << "\n";
        }
    }
};

/** The runs' e2e numbers: per-rep hops/s, wall, p50 step time. */
std::vector<Metric>
endToEnd(const std::vector<Rep> &reps, const Tally &tally)
{
    Metric hops{"hops_per_s", 0, "hops/s", {}};
    Metric wall{"wall_s", 0, "s", {}};
    Metric cycle{"cycle_us_p50", 0, "us", {}};
    std::vector<std::vector<double>> setups;
    for (const Rep &rep : reps) {
        std::uint64_t rep_hops = 0;
        double step_s = 0.0, wall_s = 0.0;
        std::vector<const SimRun *> runs;
        setups.resize(rep.runs.size());
        for (std::size_t c = 0; c < rep.runs.size(); ++c) {
            const SimRun &run = rep.runs[c];
            rep_hops += run.hops;
            step_s += run.stepS;
            wall_s += run.wallS;
            runs.push_back(&run);
            setups[c].insert(setups[c].end(), run.setupS.begin(),
                             run.setupS.end());
        }
        hops.reps.push_back(static_cast<double>(rep_hops) / step_s);
        wall.reps.push_back(wall_s);
        cycle.reps.push_back(stepUsP50(runs));
    }
    // Set-up: each config's median construction time, summed.
    Metric setup{"setup_s", 0, "s", {}};
    for (const std::vector<double> &samples : setups)
        setup.value += median(samples);
    for (Metric *m : {&hops, &wall, &cycle})
        m->value = median(m->reps);
    const Metric rss{"peak_rss_mb", peakRssMiB(), "MiB", {}};
    const Metric failed{"failed_ratio",
                        static_cast<double>(tally.failed) /
                            static_cast<double>(tally.attempted),
                        "ratio",
                        {}};
    return {hops, wall, setup, cycle, rss, failed};
}

/** hops/s of config 0 over @p reps (median). */
double
firstConfigHopsPerS(const std::vector<Rep> &reps)
{
    std::vector<double> v;
    for (const Rep &rep : reps)
        v.push_back(static_cast<double>(rep.runs[0].hops) /
                    rep.runs[0].stepS);
    return median(v);
}

struct LayerInputs
{
    const WorkloadSpec *workload;
    std::uint64_t seed;
    const std::vector<Rep> *untraced;
    const std::vector<Rep> *traced;
    const SimRun *shardPass;   ///< config 0 at two shards
    const SimRun *faultPass;   ///< config 0 with audit/watchdog flipped
    std::vector<OpTime> arbitrate;
    std::vector<QueueingReplay> queueing;
    std::vector<WorkloadReplay> offers;
    const SpanTrace *trace;
};

std::vector<Metric>
perLayer(const LayerInputs &in)
{
    const WorkloadSpec &w = *in.workload;
    const SpanTrace &trace = *in.trace;
    std::vector<Metric> out;
    const auto add = [&out](const char *name, double value,
                            const char *unit) {
        out.push_back(Metric{name, value, unit, {}});
    };

    // engine: traced step spans and per-cycle samples.
    double traced_step_s = 0.0;
    std::uint64_t traced_hops = 0, flit_hops = 0, cycles = 0;
    LayerCounts layer;
    std::vector<double> rep_flit_hops, rep_arbitrations, rep_stale;
    std::vector<double> traced_hps;
    for (const Rep &rep : *in.traced) {
        std::uint64_t rep_hops = 0, rep_flits = 0, rep_arb = 0,
                      rep_st = 0;
        double rep_step = 0.0;
        for (std::size_t c = 0; c < rep.runs.size(); ++c) {
            const SimRun &run = rep.runs[c];
            const bool flit = w.sims[c].torus
                                  ? flitLevelSwitching(
                                        w.sims[c].grid.switching)
                                  : flitLevelSwitching(
                                        w.sims[c].omega.switching);
            rep_hops += run.hops;
            rep_flits += flit ? run.flitHops : run.hops;
            rep_step += run.stepS;
            rep_arb += run.layer.arbitrations;
            rep_st += run.layer.staleOverrides;
            cycles += run.stepNs.size();
            const LayerCounts &l = run.layer;
            layer.grants += l.grants;
            layer.received += l.received;
            layer.discarded += l.discarded;
            layer.activeSwitchCycles += l.activeSwitchCycles;
            layer.switchCycles += l.switchCycles;
            layer.backlogSum += l.backlogSum;
            layer.usedSlotsSum += l.usedSlotsSum;
            layer.bufferCycles += l.bufferCycles;
        }
        traced_step_s += rep_step;
        traced_hops += rep_hops;
        flit_hops += rep_flits;
        layer.arbitrations += rep_arb;
        traced_hps.push_back(static_cast<double>(rep_hops) / rep_step);
        rep_flit_hops.push_back(static_cast<double>(rep_flits));
        rep_arbitrations.push_back(static_cast<double>(rep_arb));
        rep_stale.push_back(static_cast<double>(rep_st));
    }
    const TailHistogram &steps = trace.histogram("engine.step");
    add("engine.step_us_p50", steps.quantile(0.5) / 1e3, "us");
    add("engine.step_us_p99", steps.quantile(0.99) / 1e3, "us");
    add("engine.ns_per_hop",
        traced_step_s * 1e9 / static_cast<double>(traced_hops), "ns");
    add("engine.active_switch_ratio",
        static_cast<double>(layer.activeSwitchCycles) /
            static_cast<double>(layer.switchCycles),
        "ratio");
    add("engine.source_backlog_mean",
        static_cast<double>(layer.backlogSum) / static_cast<double>(cycles),
        "packets");

    // shard: config 0 at one and at two shards, both untraced.
    const double pass_hps = static_cast<double>(in.shardPass->hops) /
                            in.shardPass->stepS;
    std::vector<const SimRun *> own_c0;
    for (const Rep &rep : *in.untraced)
        own_c0.push_back(&rep.runs[0]);
    add("shard.speedup_2", pass_hps / firstConfigHopsPerS(*in.untraced),
        "ratio");
    add("shard.step_us_p50_s1", stepUsP50(own_c0), "us");

    // flit: credits consumed (packet mode: one flit per packet-hop).
    add("flit.flit_hops", median(rep_flit_hops), "count");
    add("flit.ns_per_flit_hop",
        traced_step_s * 1e9 / static_cast<double>(flit_hops), "ns");

    // switchsim: arbiter counters, and the arbitration replay.
    add("switchsim.arbitrations", median(rep_arbitrations), "count");
    add("switchsim.grants_per_arbitration",
        static_cast<double>(layer.grants) /
            static_cast<double>(layer.arbitrations),
        "ratio");
    add("switchsim.stale_overrides", median(rep_stale), "count");
    OpTime arb;
    for (const OpTime &op : in.arbitrate) {
        arb.ns += op.ns;
        arb.calls += op.calls;
    }
    add("switchsim.arbitrate_ns", arb.perCall(), "ns");

    // queueing: occupancy samples, switch counters, buffer replay.
    add("queueing.occupancy_mean",
        static_cast<double>(layer.usedSlotsSum) /
            static_cast<double>(layer.bufferCycles),
        "slots");
    const double offered =
        static_cast<double>(layer.received + layer.discarded);
    add("queueing.discard_ratio",
        offered > 0 ? static_cast<double>(layer.discarded) / offered : 0.0,
        "ratio");
    QueueingReplay q;
    for (const QueueingReplay &r : in.queueing) {
        for (auto [sum, part] : {std::pair{&q.canAccept, &r.canAccept},
                                 std::pair{&q.push, &r.push},
                                 std::pair{&q.pop, &r.pop}}) {
            sum->ns += part->ns;
            sum->calls += part->calls;
        }
        q.admits += r.admits;
    }
    add("queueing.admit_ratio",
        static_cast<double>(q.admits) /
            static_cast<double>(q.canAccept.calls),
        "ratio");
    add("queueing.can_accept_ns", q.canAccept.perCall(), "ns");
    add("queueing.push_ns", q.push.perCall(), "ns");
    add("queueing.pop_ns", q.pop.perCall(), "ns");

    // workload: the injection-process replay.
    WorkloadReplay wl;
    for (const WorkloadReplay &r : in.offers) {
        wl.offer.ns += r.offer.ns;
        wl.offer.calls += r.offer.calls;
        wl.offers += r.offers;
        wl.cycles += r.cycles;
    }
    add("workload.offer_ns", wl.offer.perCall(), "ns");
    add("workload.offers_per_cycle",
        static_cast<double>(wl.offers) / static_cast<double>(wl.cycles),
        "offers/cycle");

    // fault: config 0 with the audit + watchdog on vs off.
    const bool spec_audits = w.sims[0].common().auditEveryCycles != 0;
    const SimSpec audited =
        applyKnobs(w.sims[0], RunKnobs{in.seed, 1, !spec_audits});
    std::vector<double> on_audit, on_other, on_mean, off_mean;
    const auto stepMeanUs = [](const SimRun &run) {
        return run.stepS * 1e6 / static_cast<double>(run.stepNs.size());
    };
    if (spec_audits) {
        for (const Rep &rep : *in.untraced) {
            on_audit.push_back(
                auditStepUs(rep.runs[0], audited.common(), true));
            on_other.push_back(
                auditStepUs(rep.runs[0], audited.common(), false));
            on_mean.push_back(stepMeanUs(rep.runs[0]));
        }
        off_mean.push_back(stepMeanUs(*in.faultPass));
    } else {
        on_audit.push_back(
            auditStepUs(*in.faultPass, audited.common(), true));
        on_other.push_back(
            auditStepUs(*in.faultPass, audited.common(), false));
        on_mean.push_back(stepMeanUs(*in.faultPass));
        for (const Rep &rep : *in.untraced)
            off_mean.push_back(stepMeanUs(rep.runs[0]));
    }
    add("fault.audit_step_extra_us", median(on_audit) - median(on_other),
        "us");
    add("fault.check_share",
        (median(on_mean) - median(off_mean)) / median(on_mean), "ratio");

    std::vector<double> untraced_hps;
    for (const Rep &rep : *in.untraced) {
        std::uint64_t h = 0;
        double s = 0.0;
        for (const SimRun &run : rep.runs) {
            h += run.hops;
            s += run.stepS;
        }
        untraced_hps.push_back(static_cast<double>(h) / s);
    }
    add("trace.overhead_ratio", median(traced_hps) / median(untraced_hps),
        "ratio");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("perf",
                   "Simulator benchmark: one pinned workload, host-time "
                   "metrics (see bench/perf/README.md)");
    args.addOption("workload", "",
                   "omega64_light|omega64_sat|torus32|"
                   "flit_torus8|incast_torus8");
    args.addOption("seed", "0",
                   "simulation seed (default: the workload's own)");
    args.addOption("reps", "5", "timed repetitions after the warm-up one");
    args.addOption("seconds", "0",
                   "repeat until this many seconds are measured "
                   "(overrides --reps; at least 3 repetitions)");
    args.addOption("trace", "",
                   "traced run: per-layer metrics, Chrome-trace JSON "
                   "written to this file");
    args.addOption("json", "BENCH_perf.json", "result file");
    args.parse(argc, argv);

    const std::vector<WorkloadSpec> all = pinnedWorkloads();
    const std::string name = args.getString("workload");
    const auto found =
        std::find_if(all.begin(), all.end(),
                     [&name](const WorkloadSpec &w) { return w.name == name; });
    if (found == all.end()) {
        std::cerr << "perf: unknown --workload '" << name << "'\n\n"
                  << args.usage();
        return 1;
    }
    const WorkloadSpec &w = *found;
    const std::int64_t seed_arg = args.getInt("seed");
    const std::int64_t reps_arg = args.getInt("reps");
    const double seconds = args.getDouble("seconds");
    if (seed_arg < 0 || reps_arg < 1 || seconds < 0) {
        std::cerr << "perf: --seed must be >= 0, --reps >= 1 and "
                     "--seconds >= 0\n\n"
                  << args.usage();
        return 1;
    }
    const std::uint64_t seed = args.wasSet("seed")
                                   ? static_cast<std::uint64_t>(seed_arg)
                                   : w.defaultSeed;
    const bool default_seed = seed == w.defaultSeed;
    const std::string trace_path = args.getString("trace");
    std::unique_ptr<SpanTrace> trace;
    if (!trace_path.empty()) {
        trace = std::make_unique<SpanTrace>();
        for (std::size_t c = 0; c < w.sims.size(); ++c)
            trace->setConfigName(static_cast<std::int32_t>(c),
                                 w.name + "/" + w.sims[c].label);
    }

    // Two CPUs hold every pass: the 2-shard pass needs the second.
    const unsigned pass_shards =
        std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
    const std::string cpus = pinToLastCpus(pass_shards);
    std::cout << "perf: " << w.name << ", seed " << seed
              << (default_seed ? " (default)" : "")
              << ", timed at 1 shard, host reports "
              << std::thread::hardware_concurrency()
              << " threads, pinned to CPUs " << cpus
              << (trace ? ", traced" : "") << "\n";

    // 1. The warm-up repetition: reference pass of every config.
    Tally tally;
    std::vector<Reference> refs;
    std::cout << "model (warm-up repetition, run() at 1 shard):\n";
    for (const SimSpec &sim : w.sims) {
        Reference ref;
        {
            SpanScope span(trace.get(), "reference.run", SpanTrace::kNoConfig);
            ref = runReference(sim, seed);
        }
        tally.add(w.name + "/" + sim.label + " (warm-up)", ref.failures);
        const ModelBlock &m = ref.model;
        std::cout << "  " << std::left << std::setw(14) << sim.label
                  << std::right << std::setprecision(5)
                  << " delivered " << m.throughput << " pkt/cycle/node"
                  << "  latency p50/p99 " << m.latencyP50 << "/"
                  << m.latencyP99 << "  e2e p50/p99 " << m.e2eP50 << "/"
                  << m.e2eP99 << "  discards " << m.discarded << "\n"
                  << "  " << std::setw(14) << "" << " fingerprint "
                  << ref.fingerprint.text() << "\n";
        refs.push_back(std::move(ref));
    }

    // 2. Timed repetitions (alternating with traced ones).
    const auto runRep = [&](SpanTrace *t, int extra_setups) {
        SpanScope span(t, "rep", SpanTrace::kNoConfig);
        Rep rep;
        for (std::size_t c = 0; c < w.sims.size(); ++c) {
            const SimSpec spec =
                applyKnobs(w.sims[c], RunKnobs{seed, 1, false});
            rep.runs.push_back(runTimed(spec, refs[c].fingerprint.counts,
                                        extra_setups, t,
                                        static_cast<std::int32_t>(c)));
            tally.add(w.name + "/" + w.sims[c].label,
                      rep.runs.back().failures);
        }
        return rep;
    };
    std::vector<Rep> untraced, traced;
    const std::size_t min_reps = seconds > 0 ? (trace ? 2 : 3) : 0;
    const Clock::time_point timed_start = Clock::now();
    for (;;) {
        untraced.push_back(runRep(nullptr, 2));
        if (trace)
            traced.push_back(runRep(trace.get(), 0));
        const bool done =
            seconds > 0
                ? untraced.size() >= min_reps &&
                      secondsBetween(timed_start, Clock::now()) >= seconds
                : untraced.size() >= static_cast<std::size_t>(reps_arg);
        if (done)
            break;
    }

    // 3. The first config at two shards must reproduce the counts.
    SimRun shard_pass;
    if (w.shardGate || trace) {
        SpanScope span(trace.get(), "pass.shards", SpanTrace::kNoConfig);
        shard_pass = runTimed(
            applyKnobs(w.sims[0], RunKnobs{seed, pass_shards, false}),
            refs[0].fingerprint.counts, 0, nullptr, 0);
        tally.add(detail::concat(w.name, "/", w.sims[0].label, " at ",
                                 pass_shards, " shards"),
                  shard_pass.failures);
    }

    // 4. Traced run: the audit-flipped pass and the layer replays.
    std::vector<Metric> layers;
    if (trace) {
        SimRun fault_pass;
        {
            SpanScope span(trace.get(), "pass.audit_flipped",
                           SpanTrace::kNoConfig);
            fault_pass = runTimed(
                applyKnobs(w.sims[0], RunKnobs{seed, 1, true}),
                refs[0].fingerprint.counts, 0, nullptr, 0);
            tally.add(w.name + "/" + w.sims[0].label + " audit flipped",
                      fault_pass.failures);
        }
        LayerInputs in{&w,          seed,        &untraced, &traced,
                       &shard_pass, &fault_pass, {},        {},
                       {},          trace.get()};
        for (std::size_t c = 0; c < w.sims.size(); ++c) {
            const SimSpec &spec = w.sims[c];
            const auto id = static_cast<std::int32_t>(c);
            LayerCounts occupancy;
            for (const Rep &rep : traced) {
                occupancy.usedSlotsSum += rep.runs[c].layer.usedSlotsSum;
                occupancy.bufferCycles += rep.runs[c].layer.bufferCycles;
            }
            const double per_buffer =
                static_cast<double>(occupancy.usedSlotsSum) /
                static_cast<double>(occupancy.bufferCycles);
            ReplayInput input;
            {
                SpanScope span(trace.get(), "replay.record", id);
                input = recordInjections(spec, seed, 4096);
            }
            in.arbitrate.push_back(replayArbitration(
                spec, input, per_buffer, trace.get(), id));
            in.queueing.push_back(
                replayQueueing(spec, input, per_buffer, trace.get(), id));
            in.offers.push_back(
                replayWorkload(spec, seed, trace.get(), id));
        }
        layers = perLayer(in);
    }
    const std::vector<Metric> e2e = endToEnd(untraced, tally);

    std::size_t timed_steps = 0;
    for (const SimRun &run : untraced.front().runs)
        timed_steps += run.stepNs.size();
    std::cout << "timed: " << untraced.size()
              << " repetitions after the warm-up one"
              << (trace ? detail::concat(", plus ", traced.size(),
                                         " traced")
                        : std::string())
              << ", " << timed_steps << " timed steps each; "
              << tally.failed << " of "
              << tally.attempted << " runs failed a correctness gate\n";
    printMetrics("end-to-end (median over the untraced repetitions):", e2e);
    if (trace) {
        printMetrics("per-layer (traced run):", layers);
        std::cout << "self time by span:\n";
        trace->printSelfTimes(std::cout);
        trace->writeChromeTrace(trace_path);
        std::cout << "wrote trace " << trace_path << "\n";
    }

    const std::string json_path = args.getString("json");
    std::ofstream file(json_path);
    if (!file)
        damq_fatal("cannot open ", json_path, " for writing");
    JsonWriter json(file);
    json.beginObject();
    json.field("schema", "damq-perf-v2");
    json.field("workload", w.name);
    json.field("seed", seed);
    json.field("defaultSeed", default_seed);
    json.field("shardPassShards", static_cast<std::uint64_t>(pass_shards));
    json.field("hardwareConcurrency",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    json.field("timedReps", static_cast<std::uint64_t>(untraced.size()));
    json.field("tracedReps", static_cast<std::uint64_t>(traced.size()));
    json.field("attempted", tally.attempted);
    json.field("failed", tally.failed);
    json.key("failures");
    json.beginArray();
    for (const std::string &f : tally.failures)
        json.value(f);
    json.endArray();
    writeMetrics(json, "metrics", e2e);
    if (trace)
        writeMetrics(json, "layers", layers);
    json.key("configs");
    json.beginArray();
    for (std::size_t c = 0; c < w.sims.size(); ++c) {
        const ModelBlock &m = refs[c].model;
        json.beginObject();
        json.field("label", w.sims[c].label);
        json.field("fingerprint", refs[c].fingerprint.text());
        json.field("warmupPassed", refs[c].failures.empty());
        json.key("model");
        json.beginObject();
        json.field("deliveredThroughput", m.throughput);
        json.field("latencyP50", m.latencyP50);
        json.field("latencyP99", m.latencyP99);
        json.field("e2eLatencyP50", m.e2eP50);
        json.field("e2eLatencyP99", m.e2eP99);
        json.field("discarded", m.discarded);
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.finish();
    std::cout << "wrote " << json_path << "\n";
    return 0;
}

/**
 * @file
 * Shared declarations of the simulator benchmark (bench/perf).
 *
 * The benchmark drives the simulators from outside: it times calls
 * to the public NetworkSimulator / TorusSimulator constructor and
 * step(), and reads only public counters.  Every number it reports
 * is host time except the counts, which are exact.  Simulated
 * outputs (throughput, latency) are fingerprinted and compared
 * exactly; a change that moves them is a model change, not a
 * speed-up.
 */

#ifndef DAMQ_BENCH_PERF_PERF_HH
#define DAMQ_BENCH_PERF_PERF_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "network/core/sync_engine.hh"
#include "network/network_sim.hh"
#include "network/torus_sim.hh"
#include "switchsim/switch_model.hh"

namespace damq {
namespace perf {

class SpanTrace;

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Nanoseconds between two clock readings. */
inline std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

// --- workloads ---------------------------------------------------------

/** One simulation of a workload's batch. */
struct SimSpec
{
    std::string label;
    bool torus = false;
    NetworkConfig omega; ///< used when !torus
    TorusConfig grid;    ///< used when torus

    /** Drain after the measured window (then check credit closure). */
    bool drain = false;

    SimCommonConfig &common() { return torus ? grid.common : omega.common; }
    const SimCommonConfig &common() const
    {
        return torus ? grid.common : omega.common;
    }
};

/** A pinned workload: a batch of back-to-back simulations, timed at
 *  one shard. */
struct WorkloadSpec
{
    std::string name;
    std::uint64_t defaultSeed = 0;
    std::vector<SimSpec> sims;

    /** Rerun the first config at two shards on every invocation, not
     *  only traced ones, and check it reproduces the counts. */
    bool shardGate = false;
};

/** The five pinned workloads. */
std::vector<WorkloadSpec> pinnedWorkloads();

/** How one run of a SimSpec deviates from the spec. */
struct RunKnobs
{
    std::uint64_t seed = 1;
    unsigned shards = 1;

    /** Audit + watchdog turned off when the spec arms them, armed
     *  (every 256 / 1000 cycles) when it does not. */
    bool auditFlipped = false;
};

/** The spec's SimCommonConfig after applying @p knobs. */
SimSpec applyKnobs(const SimSpec &spec, const RunKnobs &knobs);

/** The fields of a simulator's run() result that both share. */
struct RunOutput
{
    NetworkCounters window;
    RunningStats latency;
    double throughput = 0.0;
    double latencyP50 = 0.0;
    double latencyP99 = 0.0;
    double e2eP50 = 0.0;
    double e2eP99 = 0.0;
};

/** A constructed Omega or torus simulator behind one face. */
class Sim
{
  public:
    explicit Sim(const SimSpec &spec);

    /** Seconds the simulator's constructor took. */
    double constructSeconds() const { return constructS; }

    /** The simulator's own warm-up + measure schedule. */
    RunOutput run();

    /** One call of the simulator's public step(). */
    void step()
    {
        if (omega)
            omega->step();
        else
            grid->step();
    }

    core::SyncEngine &engine() { return *eng; }
    const core::SyncEngine &engine() const { return *eng; }

    /** Packet-hops so far: Σ SwitchUnitStats::transmitted, which
     *  counts every departure from a switch, ejection included. */
    std::uint64_t packetHops() const;

    /** The input-buffered switches, in SwitchId order. */
    const std::vector<const SwitchModel *> &switches() const
    {
        return models;
    }

  private:
    std::unique_ptr<NetworkSimulator> omega;
    std::unique_ptr<TorusSimulator> grid;
    core::SyncEngine *eng = nullptr;
    double constructS = 0.0;
    std::vector<const SwitchModel *> models;
};

// --- correctness -------------------------------------------------------

/** The exact counts every run of a config must reproduce. */
struct Counts
{
    std::uint64_t generated = 0; ///< in the measured window
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t discarded = 0;
    std::uint64_t hops = 0;      ///< lifetime, at the window's end
    std::uint64_t drained = 0;   ///< lifetime delivered after drain

    bool operator==(const Counts &) const = default;
};

/** Counts plus the latency outputs only run() exposes. */
struct Fingerprint
{
    Counts counts;
    std::uint64_t latencyCount = 0;
    double latencyMean = 0.0;
    double e2eP50 = 0.0;
    double e2eP99 = 0.0;

    /** Canonical one-line spelling; doubles as their hex bits. */
    std::string text() const;
};

/** Simulated outputs of a config: printed, never a metric. */
struct ModelBlock
{
    double throughput = 0.0;
    double latencyP50 = 0.0;
    double latencyP99 = 0.0;
    double e2eP50 = 0.0;
    double e2eP99 = 0.0;
    std::uint64_t discarded = 0;
};

/** The untimed reference pass of one config (the warm-up rep). */
struct Reference
{
    Fingerprint fingerprint;
    ModelBlock model;
    std::vector<std::string> failures;
};

/**
 * Construct @p spec at one shard, run() its warm-up/measure
 * schedule, drain when the spec asks, and check the run.  This is
 * the discarded warm-up repetition; it is also the only pass that
 * sees the latency statistics, so it carries the full fingerprint.
 */
Reference runReference(const SimSpec &spec, std::uint64_t seed);

// --- timed runs --------------------------------------------------------

/** Per-layer counters of a timed run: switch-counter deltas over the
 *  measured window, plus per-cycle samples when traced. */
struct LayerCounts
{
    std::uint64_t arbitrations = 0;
    std::uint64_t grants = 0;
    std::uint64_t staleOverrides = 0;
    std::uint64_t received = 0;
    std::uint64_t discarded = 0;
    std::uint64_t activeSwitchCycles = 0;
    std::uint64_t switchCycles = 0;
    std::uint64_t backlogSum = 0;
    std::uint64_t usedSlotsSum = 0;
    std::uint64_t bufferCycles = 0;
};

/** Host time and exact counts of one timed run of one config. */
struct SimRun
{
    /** Construction times; the first built the simulator used. */
    std::vector<double> setupS;
    double wallS = 0.0;  ///< construct + warm-up + measure + drain + checks
    double stepS = 0.0;  ///< Σ step() time in the measured window
    std::uint64_t hops = 0;     ///< packet-hops in the window
    std::uint64_t flitHops = 0; ///< credits consumed in the window
    std::vector<std::uint32_t> stepNs; ///< one per measured step
    Counts counts;
    LayerCounts layer;
    std::vector<std::string> failures;
};

/**
 * One timed run: construct (plus @p extra_setups throwaway
 * constructions, for the set-up median), warm up, measure with
 * every step() timed, drain, and check the run against the
 * reference counts @p ref.  With @p trace, spans are recorded around
 * each layer call and the per-layer counters are sampled each
 * measured cycle.
 */
SimRun runTimed(const SimSpec &spec, const Counts &ref,
                int extra_setups, SpanTrace *trace,
                std::int32_t config_id);

// --- layer replays (traced runs only) ----------------------------------

/** Time and call count of one replayed operation. */
struct OpTime
{
    double ns = 0.0; ///< busy time, timer overhead removed
    std::uint64_t calls = 0;

    double perCall() const { return calls ? ns / calls : 0.0; }
};

/** The queueing replay's results. */
struct QueueingReplay
{
    OpTime canAccept;
    OpTime push;
    OpTime pop;
    std::uint64_t admits = 0;
};

/** The workload replay's results. */
struct WorkloadReplay
{
    OpTime offer;
    std::uint64_t offers = 0;
    std::uint64_t cycles = 0;
};

/** What the buffer and switch replays are fed. */
struct ReplayInput
{
    PortId ports = 0;            ///< the fabric's switch radix
    std::vector<Packet> packets; ///< queued at their first switch
};

/**
 * The first @p count packets @p spec's simulation injects at
 * @p seed (from recordInjectionsTo), routed and stamped with the
 * queue they would join at their first switch.
 */
ReplayInput recordInjections(const SimSpec &spec, std::uint64_t seed,
                             std::size_t count);

/**
 * Time SwitchModel::arbitrateInto + popGrantedInto on one switch
 * with @p spec's radix, organization, slots, VCs and sharing policy,
 * refilled from @p input to @p occupancy mean slots per buffer.
 */
OpTime replayArbitration(const SimSpec &spec, const ReplayInput &input,
                         double occupancy, SpanTrace *trace,
                         std::int32_t config_id);

/**
 * Time BufferModel::canAcceptClass / push / pop, in batches, on a
 * bank of buffers of @p spec's organization, slots, VCs and sharing
 * policy, offered @p input's packets and held near @p occupancy mean
 * slots.
 */
QueueingReplay replayQueueing(const SimSpec &spec, const ReplayInput &input,
                              double occupancy, SpanTrace *trace,
                              std::int32_t config_id);

/**
 * Time makeInjectionProcess(...)->shouldGenerate for every source
 * and every measured cycle of @p spec at @p seed.
 */
WorkloadReplay replayWorkload(const SimSpec &spec, std::uint64_t seed,
                              SpanTrace *trace, std::int32_t config_id);

} // namespace perf
} // namespace damq

#endif // DAMQ_BENCH_PERF_PERF_HH

/**
 * @file
 * The pinned workloads, the simulator wrapper, and the reference and
 * timed passes with their correctness gates.
 */

#include <bit>
#include <cstdio>

#include "common/string_util.hh"
#include "perf.hh"
#include "span_trace.hh"

namespace damq {
namespace perf {

namespace {

/** Cycles a drained run may take to empty after its window. */
constexpr Cycle kDrainBudget = 200000;

/** Audit/watchdog periods armed by RunKnobs::auditFlipped. */
constexpr Cycle kFlipAuditEvery = 256;
constexpr Cycle kFlipWatchdog = 1000;

void
setSchedule(SimCommonConfig &common, std::uint64_t seed, Cycle warmup,
            Cycle measure)
{
    common.seed = seed;
    common.warmupCycles = warmup;
    common.measureCycles = measure;
}

/** The paper's 64-endpoint radix-4 Omega (3 x 16 switches). */
std::vector<SimSpec>
omegaSims(double load, Cycle warmup, Cycle measure)
{
    std::vector<SimSpec> sims;
    for (const BufferType type : {BufferType::Fifo, BufferType::Damq,
                                  BufferType::Samq, BufferType::Safc}) {
        SimSpec sim;
        sim.label = toLower(bufferTypeName(type));
        NetworkConfig &cfg = sim.omega;
        cfg.numPorts = 64;
        cfg.radix = 4;
        cfg.bufferType = type;
        cfg.slotsPerBuffer = 4;
        cfg.protocol = FlowControl::Blocking;
        cfg.arbitration = ArbitrationPolicy::Smart;
        cfg.offeredLoad = load;
        setSchedule(cfg.common, 88, warmup, measure);
        sims.push_back(sim);
    }
    return sims;
}

/**
 * bench/flit's torus8x8: 2 dateline VCs, 4-flit packets.  At load
 * 0.15 a buffer is often short of a whole packet's space, so VCT's
 * whole-packet admission decides differently from wormhole and every
 * vct fingerprint differs from its wormhole twin's.
 */
std::vector<SimSpec>
flitSims()
{
    std::vector<SimSpec> sims;
    for (const Switching mode :
         {Switching::Wormhole, Switching::VirtualCutThrough}) {
        for (const BufferType type : {BufferType::Damq, BufferType::Fifo}) {
            SimSpec sim;
            sim.label = detail::concat(switchingName(mode), "/",
                                       toLower(bufferTypeName(type)));
            sim.torus = true;
            sim.drain = true;
            TorusConfig &cfg = sim.grid;
            cfg.bufferType = type;
            cfg.switching = mode;
            cfg.flitsPerPacket = 4;
            cfg.slotsPerBuffer = 40; // 5 ports x 2 VCs x one packet
            cfg.offeredLoad = 0.15;
            setSchedule(cfg.common, 99, 500, 8000);
            cfg.common.auditEveryCycles = 256;
            cfg.common.watchdogStallCycles = 1000;
            sims.push_back(sim);
        }
    }
    return sims;
}

/** bench/sharing's bursty hot-spot incast on the 2-VC torus. */
std::vector<SimSpec>
incastSims()
{
    struct Combo
    {
        const char *label;
        BufferType buffer;
        SharingPolicy policy;
    };
    const Combo combos[] = {
        {"damq/static", BufferType::Damq, SharingPolicy::Static},
        {"damq/dt", BufferType::Damq, SharingPolicy::DynamicThreshold},
        {"damq/delay", BufferType::Damq, SharingPolicy::DelayDriven},
        {"voq/static", BufferType::Voq, SharingPolicy::Static},
    };
    std::vector<SimSpec> sims;
    for (const Combo &combo : combos) {
        SimSpec sim;
        sim.label = combo.label;
        sim.torus = true;
        sim.drain = true;
        TorusConfig &cfg = sim.grid;
        cfg.bufferType = combo.buffer;
        cfg.sharing.kind = combo.policy;
        cfg.sharing.dtAlpha = 2.0;
        cfg.sharing.delayAgeScale = 64;
        cfg.slotsPerBuffer = 20;
        cfg.traffic = "hotspot";
        cfg.hotSpotFraction = 0.15;
        cfg.offeredLoad = 0.25;
        cfg.common.workload.kind = core::WorkloadKind::OnOff;
        cfg.common.workload.burstiness = 3.0;
        cfg.common.workload.meanBurstCycles = 8;
        setSchedule(cfg.common, 99, 500, 10000);
        cfg.common.auditEveryCycles = 256;
        cfg.common.watchdogStallCycles = 2000;
        sims.push_back(sim);
    }
    return sims;
}

/**
 * 32x32 discarding torus: its state is larger than a core's L2 cache
 * but fits the shared L3.  A 64x64 torus spills the L3 as soon as
 * other tenants of a shared host use it; its step time then moves
 * 2-3x from one minute to the next, more than any bound.  It is timed
 * at one shard: at two, the step time follows how fast the host wakes
 * the second thread at each barrier, which flips between two speeds
 * 35% apart every few seconds.
 */
SimSpec
torus32Sim()
{
    SimSpec sim;
    sim.label = "damq";
    sim.torus = true;
    TorusConfig &cfg = sim.grid;
    cfg.width = 32;
    cfg.height = 32;
    cfg.protocol = FlowControl::Discarding;
    cfg.bufferType = BufferType::Damq;
    cfg.slotsPerBuffer = 5;
    cfg.offeredLoad = 0.40;
    setSchedule(cfg.common, 99, 200, 3000);
    cfg.common.vcs = 1;
    return sim;
}

std::string
hexBits(double value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(value)));
    return buf;
}

/** generated = delivered + discarded + fault-dropped + in flight +
 *  at sources, on lifetime counters. */
void
checkConservation(const Sim &sim, const char *when,
                  std::vector<std::string> &failures)
{
    const core::SyncEngine &eng = sim.engine();
    const NetworkCounters &c = eng.lifetime();
    const std::uint64_t rhs = c.delivered + c.discarded() + c.faultDropped +
                              eng.packetsInFlight() +
                              eng.packetsAtSources();
    if (c.generated != rhs)
        failures.push_back(detail::concat(
            "conservation broken ", when, ": generated ", c.generated,
            " != delivered + discarded + dropped + in flight + at "
            "sources = ",
            rhs));
}

/** Drain (when the spec asks) and every end-of-run gate. */
void
finishRun(Sim &sim, const SimSpec &spec, Counts &counts,
          std::vector<std::string> &failures)
{
    checkConservation(sim, "after the window", failures);
    core::SyncEngine &eng = sim.engine();
    if (spec.drain) {
        if (!eng.drain(kDrainBudget))
            failures.push_back(detail::concat(
                "network failed to drain within ", kDrainBudget,
                " cycles"));
        counts.drained = eng.lifetime().delivered;
        checkConservation(sim, "after the drain", failures);
        if (eng.flitMode() &&
            (!eng.flitCreditsAtRest() ||
             eng.creditsIssued() != eng.creditsReturned()))
            failures.push_back(detail::concat(
                "credits not closed after the drain: issued ",
                eng.creditsIssued(), ", returned ", eng.creditsReturned()));
    }
    const FaultReport report = eng.faultReport();
    if (report.watchdogFired)
        failures.push_back(detail::concat("deadlock watchdog tripped at "
                                          "cycle ",
                                          report.watchdogFiredAt));
    if (report.auditViolations != 0)
        failures.push_back(detail::concat(report.auditViolations,
                                          " invariant audit violations"));
    if (spec.common().auditEveryCycles != 0 && report.auditsRun == 0)
        failures.push_back("the invariant audit never ran");
}

Counts
windowCounts(const NetworkCounters &window, std::uint64_t hops)
{
    Counts c;
    c.generated = window.generated;
    c.injected = window.injected;
    c.delivered = window.delivered;
    c.discarded = window.discarded();
    c.hops = hops;
    return c;
}

/** Lifetime arbiter and switch counters summed over the fabric. */
struct SwitchTotals
{
    std::uint64_t arbitrations = 0;
    std::uint64_t grants = 0;
    std::uint64_t staleOverrides = 0;
    std::uint64_t received = 0;
    std::uint64_t discarded = 0;
};

SwitchTotals
switchTotals(const Sim &sim)
{
    SwitchTotals sum;
    for (const SwitchModel *sw : sim.switches()) {
        const ArbiterStats &arb = sw->arbiterStats();
        sum.arbitrations += arb.arbitrations;
        sum.grants += arb.grantsIssued;
        sum.staleOverrides += arb.staleOverrides;
        sum.received += sw->stats().received;
        sum.discarded += sw->stats().discarded;
    }
    return sum;
}

void
sampleLayer(const Sim &sim, LayerCounts &layer)
{
    for (const SwitchModel *sw : sim.switches()) {
        layer.activeSwitchCycles += sw->totalPackets() > 0 ? 1 : 0;
        layer.usedSlotsSum += sw->totalUsedSlots();
        layer.bufferCycles += sw->numPorts();
    }
    layer.switchCycles += sim.switches().size();
    layer.backlogSum += sim.engine().packetsAtSources();
}

} // namespace

std::vector<WorkloadSpec>
pinnedWorkloads()
{
    std::vector<WorkloadSpec> all;
    all.push_back({"omega64_light", 88, omegaSims(0.25, 2000, 40000)});
    all.push_back({"omega64_sat", 88, omegaSims(1.0, 2000, 20000)});
    all.push_back({"torus32", 99, {torus32Sim()}, true});
    all.push_back({"flit_torus8", 99, flitSims()});
    all.push_back({"incast_torus8", 99, incastSims()});
    return all;
}

SimSpec
applyKnobs(const SimSpec &spec, const RunKnobs &knobs)
{
    SimSpec out = spec;
    SimCommonConfig &common = out.common();
    common.seed = knobs.seed;
    common.shards = knobs.shards;
    if (knobs.auditFlipped) {
        const bool armed = common.auditEveryCycles != 0;
        common.auditEveryCycles = armed ? 0 : kFlipAuditEvery;
        common.watchdogStallCycles = armed ? 0 : kFlipWatchdog;
    }
    return out;
}

Sim::Sim(const SimSpec &spec)
{
    const Clock::time_point start = Clock::now();
    if (spec.torus) {
        grid = std::make_unique<TorusSimulator>(spec.grid);
        eng = &grid->syncEngine();
    } else {
        omega = std::make_unique<NetworkSimulator>(spec.omega);
        eng = &omega->syncEngine();
    }
    constructS = secondsBetween(start, Clock::now());
    const std::uint32_t n = eng->topology().numSwitches();
    models.reserve(n);
    for (core::SwitchId sw = 0; sw < n; ++sw) {
        const auto *model =
            dynamic_cast<const SwitchModel *>(&eng->switchUnit(sw));
        damq_assert(model, "bench/perf needs input-buffered switches");
        models.push_back(model);
    }
}

RunOutput
Sim::run()
{
    const auto shared = [](const auto &r, const RunningStats &latency) {
        RunOutput out;
        out.window = r.window;
        out.latency = latency;
        out.throughput = r.deliveredThroughput;
        out.latencyP50 = r.latencyP50;
        out.latencyP99 = r.latencyP99;
        out.e2eP50 = r.e2eLatencyP50;
        out.e2eP99 = r.e2eLatencyP99;
        return out;
    };
    if (omega) {
        const NetworkResult r = omega->run();
        return shared(r, r.latencyClocks);
    }
    const TorusResult r = grid->run();
    return shared(r, r.latencyCycles);
}

std::uint64_t
Sim::packetHops() const
{
    std::uint64_t hops = 0;
    for (const SwitchModel *sw : models)
        hops += sw->stats().transmitted;
    return hops;
}

std::string
Fingerprint::text() const
{
    return detail::concat(
        "gen=", counts.generated, " inj=", counts.injected,
        " del=", counts.delivered, " disc=", counts.discarded,
        " hops=", counts.hops, " drained=", counts.drained,
        " lat_n=", latencyCount, " lat_mean=", hexBits(latencyMean),
        " e2e_p50=", hexBits(e2eP50), " e2e_p99=", hexBits(e2eP99));
}

Reference
runReference(const SimSpec &base, std::uint64_t seed)
{
    const SimSpec spec = applyKnobs(base, RunKnobs{seed, 1, false});
    Sim sim(spec);
    const RunOutput r = sim.run();
    Reference ref;
    Fingerprint &fp = ref.fingerprint;
    fp.counts = windowCounts(r.window, sim.packetHops());
    fp.latencyCount = r.latency.count();
    fp.latencyMean = r.latency.mean();
    fp.e2eP50 = r.e2eP50;
    fp.e2eP99 = r.e2eP99;
    ref.model = ModelBlock{r.throughput, r.latencyP50, r.latencyP99,
                           r.e2eP50,     r.e2eP99,     r.window.discarded()};
    finishRun(sim, spec, fp.counts, ref.failures);
    return ref;
}

SimRun
runTimed(const SimSpec &spec, const Counts &ref, int extra_setups,
         SpanTrace *trace, std::int32_t config_id)
{
    SimRun out;
    const SimCommonConfig &common = spec.common();
    const Clock::time_point start = Clock::now();
    std::unique_ptr<Sim> sim;
    {
        SpanScope span(trace, "sim.construct", config_id);
        sim = std::make_unique<Sim>(spec);
    }
    out.setupS.push_back(sim->constructSeconds());
    {
        SpanScope span(trace, "sim.warmup", config_id);
        for (Cycle c = 0; c < common.warmupCycles; ++c)
            sim->step();
    }

    core::SyncEngine &eng = sim->engine();
    const NetworkCounters before = eng.lifetime();
    const std::uint64_t hops_before = sim->packetHops();
    const std::uint64_t credits_before = eng.creditsIssued();
    const SwitchTotals totals_before = switchTotals(*sim);
    {
        SpanScope span(trace, "sim.measure", config_id);
        const SpanTrace::NameId step_name =
            trace ? trace->name("engine.step") : 0;
        out.stepNs.reserve(common.measureCycles);
        std::int64_t total_ns = 0;
        for (Cycle c = 0; c < common.measureCycles; ++c) {
            const Clock::time_point a = Clock::now();
            sim->step();
            const Clock::time_point b = Clock::now();
            const std::int64_t ns = nsBetween(a, b);
            total_ns += ns;
            out.stepNs.push_back(static_cast<std::uint32_t>(ns));
            if (trace) {
                trace->hot(step_name, config_id, a, b);
                sampleLayer(*sim, out.layer);
            }
        }
        out.stepS = static_cast<double>(total_ns) * 1e-9;
    }
    const std::uint64_t hops_after = sim->packetHops();
    out.hops = hops_after - hops_before;
    out.flitHops = eng.creditsIssued() - credits_before;
    out.counts = windowCounts(eng.lifetime() - before, hops_after);
    const SwitchTotals totals_after = switchTotals(*sim);
    out.layer.arbitrations =
        totals_after.arbitrations - totals_before.arbitrations;
    out.layer.grants = totals_after.grants - totals_before.grants;
    out.layer.staleOverrides =
        totals_after.staleOverrides - totals_before.staleOverrides;
    out.layer.received = totals_after.received - totals_before.received;
    out.layer.discarded = totals_after.discarded - totals_before.discarded;
    {
        SpanScope span(trace, spec.drain ? "sim.drain+check" : "sim.check",
                       config_id);
        finishRun(*sim, spec, out.counts, out.failures);
    }
    if (!(out.counts == ref))
        out.failures.push_back(
            "counts differ from the reference pass (a timed run must "
            "reproduce the warm-up run exactly)");
    out.wallS = secondsBetween(start, Clock::now());

    // Extra constructions feed the set-up median only; they are not
    // part of the repetition's wall time.
    sim.reset();
    for (int i = 0; i < extra_setups; ++i)
        out.setupS.push_back(Sim(spec).constructSeconds());
    return out;
}

} // namespace perf
} // namespace damq

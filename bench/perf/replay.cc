/**
 * @file
 * Layer replays of the traced run: the switch arbiter, the input
 * buffers and the injection process, each driven in isolation with
 * a workload's parameters so their per-call host time can be read
 * apart from the engine around them.
 */

#include <algorithm>
#include <cmath>

#include "common/random.hh"
#include "network/core/workload.hh"
#include "perf.hh"
#include "queueing/buffer_factory.hh"
#include "span_trace.hh"

namespace damq {
namespace perf {

namespace {

/** Replay lengths: long enough for ~0.1 s of timed calls each. */
constexpr int kArbitrations = 100000;
constexpr int kBufferOps = 1000000;

/** Buffers the queueing replay cycles through per timed batch. */
constexpr std::size_t kBufferBank = 64;

/** Seed of the replays' own occupancy draws. */
constexpr std::uint64_t kReplaySeed = 0x5eed;

/** Median cost of one back-to-back pair of clock reads, in ns;
 *  subtracted from every replayed call so OpTime is busy time. */
double
timerOverheadNs()
{
    static const double overhead = [] {
        std::vector<std::int64_t> pairs(10001);
        for (std::int64_t &ns : pairs) {
            const Clock::time_point a = Clock::now();
            ns = nsBetween(a, Clock::now());
        }
        std::nth_element(pairs.begin(),
                         pairs.begin() + pairs.size() / 2, pairs.end());
        return static_cast<double>(pairs[pairs.size() / 2]);
    }();
    return overhead;
}

void
charge(OpTime &op, Clock::time_point a, Clock::time_point b,
       std::uint64_t calls = 1)
{
    op.ns += static_cast<double>(nsBetween(a, b)) - timerOverheadNs();
    op.calls += calls;
}

/** Slots to hold this iteration: floor(mean), plus one with
 *  probability frac(mean), so the long-run mean is @p mean. */
std::uint32_t
drawTarget(double mean, Random &rng)
{
    const double whole = std::floor(mean);
    return static_cast<std::uint32_t>(whole) +
           (rng.bernoulli(mean - whole) ? 1 : 0);
}

/** The per-switch knobs both simulator configs carry. */
struct SwitchParams
{
    BufferType type;
    std::uint32_t slots;
    ArbitrationPolicy arbitration;
    std::uint32_t staleThreshold;
    SharingPolicyConfig sharing;
};

SwitchParams
switchParams(const SimSpec &spec)
{
    if (spec.torus)
        return {spec.grid.bufferType, spec.grid.slotsPerBuffer,
                spec.grid.arbitration, spec.grid.staleThreshold,
                spec.grid.sharing};
    return {spec.omega.bufferType, spec.omega.slotsPerBuffer,
            spec.omega.arbitration, spec.omega.staleThreshold,
            spec.omega.sharing};
}

} // namespace

ReplayInput
recordInjections(const SimSpec &base, std::uint64_t seed,
                 std::size_t count)
{
    const SimSpec spec = applyKnobs(base, RunKnobs{seed, 1, false});
    Sim sim(spec);
    std::vector<core::WorkloadTraceEntry> entries;
    sim.engine().recordInjectionsTo(&entries);
    const SimCommonConfig &common = spec.common();
    const Cycle budget = common.warmupCycles + common.measureCycles;
    for (Cycle c = 0; c < budget && entries.size() < count; ++c)
        sim.step();
    sim.engine().recordInjectionsTo(nullptr);
    entries.resize(std::min(entries.size(), count));

    const core::Topology &topo = sim.engine().topology();
    const Switching mode =
        spec.torus ? spec.grid.switching : spec.omega.switching;
    const std::uint32_t flits =
        spec.torus ? spec.grid.flitsPerPacket : spec.omega.flitsPerPacket;
    ReplayInput input;
    input.ports = static_cast<PortId>(topo.portsPerSwitch());
    input.packets.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        Packet pkt;
        pkt.id = i;
        pkt.source = entries[i].source;
        pkt.dest = entries[i].dest;
        pkt.outPort = topo.route(
            topo.injectionPoint(pkt.source).switchId, pkt.dest);
        pkt.vc = static_cast<VcId>(i % common.vcs);
        pkt.lengthSlots = flitLevelSwitching(mode) ? flits : 1;
        input.packets.push_back(pkt);
    }
    return input;
}

OpTime
replayArbitration(const SimSpec &spec, const ReplayInput &input,
                  double occupancy, SpanTrace *trace,
                  std::int32_t config_id)
{
    SpanScope span(trace, "replay.switchsim", config_id);
    const SwitchParams p = switchParams(spec);
    SwitchModel sw(input.ports, p.type, p.slots, p.arbitration,
                   p.staleThreshold, spec.common().vcs, p.sharing);
    Cycle clock = 0;
    sw.forEachBuffer([&clock](PortId, BufferModel &buffer) {
        buffer.attachAdmissionClock(&clock);
    });
    const CanSendFn downstream_free = [](PortId, QueueKey, const Packet &) {
        return true;
    };
    const SpanTrace::NameId name =
        trace ? trace->name("switchsim.arbitrate+pop") : 0;
    Random rng(kReplaySeed);
    GrantList grants;
    std::vector<Packet> sent;
    std::size_t next = 0;
    OpTime op;
    for (int i = 0; i < kArbitrations && !input.packets.empty(); ++i) {
        ++clock;
        for (PortId in = 0; in < input.ports; ++in) {
            const std::uint32_t target = drawTarget(occupancy, rng);
            while (sw.buffer(in).usedSlots() < target) {
                Packet pkt = input.packets[next++ % input.packets.size()];
                pkt.generatedAt = clock;
                if (!sw.tryReceive(in, pkt))
                    break;
            }
        }
        const Clock::time_point a = Clock::now();
        sw.arbitrateInto(downstream_free, grants);
        sw.popGrantedInto(grants, sent);
        const Clock::time_point b = Clock::now();
        charge(op, a, b);
        if (trace)
            trace->hot(name, config_id, a, b);
    }
    return op;
}

QueueingReplay
replayQueueing(const SimSpec &spec, const ReplayInput &input,
               double occupancy, SpanTrace *trace, std::int32_t config_id)
{
    SpanScope span(trace, "replay.queueing", config_id);
    QueueingReplay r;
    if (input.packets.empty())
        return r;
    const SwitchParams p = switchParams(spec);
    const QueueLayout layout(input.ports, spec.common().vcs);
    Cycle clock = 0;
    // One call costs a few ns, less than a clock read, so calls are
    // timed in batches across a bank of buffers.  Each buffer has a
    // twin fed the same history: the planner decides, untimed, which
    // pushes are admitted and which queues pop, and the timed twin
    // replays exactly those calls back to back.
    struct Twin
    {
        std::unique_ptr<BufferModel> planner;
        std::unique_ptr<BufferModel> timed;
        std::uint32_t popCursor = 0;
    };
    std::vector<Twin> bank(kBufferBank);
    for (Twin &t : bank) {
        t.planner = makeBuffer(p.type, layout, p.slots, p.sharing);
        t.timed = makeBuffer(p.type, layout, p.slots, p.sharing);
        t.planner->attachAdmissionClock(&clock);
        t.timed->attachAdmissionClock(&clock);
    }
    SpanTrace::NameId can_accept = 0, push = 0, pop = 0;
    if (trace) {
        can_accept = trace->name("queueing.can_accept");
        push = trace->name("queueing.push");
        pop = trace->name("queueing.pop");
    }
    const std::uint32_t queues = bank[0].timed->numQueues();
    const VcId vcs = bank[0].timed->numVcs();
    const auto keyOf = [vcs](std::uint32_t q) {
        return QueueKey{static_cast<PortId>(q / vcs),
                        static_cast<VcId>(q % vcs)};
    };
    const auto timeBatch = [&](OpTime &op, SpanTrace::NameId name,
                               std::size_t calls, auto &&body) {
        if (calls == 0)
            return;
        const Clock::time_point a = Clock::now();
        body();
        const Clock::time_point b = Clock::now();
        charge(op, a, b, calls);
        if (trace)
            trace->hot(name, config_id, a, b);
    };

    Random rng(kReplaySeed);
    std::size_t next = 0;
    std::vector<Packet> probes(bank.size());
    std::vector<std::pair<Twin *, Packet>> pushes;
    std::vector<std::pair<Twin *, QueueKey>> pops;
    while (r.canAccept.calls + r.push.calls + r.pop.calls <
           static_cast<std::uint64_t>(kBufferOps)) {
        ++clock;
        // Probe: one admission verdict per buffer at its occupancy.
        for (Packet &pkt : probes) {
            pkt = input.packets[next++ % input.packets.size()];
            pkt.generatedAt = clock;
        }
        timeBatch(r.canAccept, can_accept, bank.size(), [&] {
            for (std::size_t j = 0; j < bank.size(); ++j) {
                const Packet &pkt = probes[j];
                r.admits += bank[j].timed->canAcceptClass(
                    QueueKey{pkt.outPort, pkt.vc}, pkt.lengthSlots,
                    pkt.trafficClass);
            }
        });

        // Fill each buffer up to a drawn target, then pop it down to
        // another, so occupancy hovers around the measured mean.
        pushes.clear();
        for (Twin &t : bank) {
            const std::uint32_t target = drawTarget(occupancy, rng);
            while (t.planner->usedSlots() < target) {
                Packet pkt = input.packets[next++ % input.packets.size()];
                pkt.generatedAt = clock;
                if (!t.planner->canAcceptClass(QueueKey{pkt.outPort, pkt.vc},
                                               pkt.lengthSlots,
                                               pkt.trafficClass))
                    break;
                t.planner->push(pkt);
                pushes.emplace_back(&t, pkt);
            }
        }
        timeBatch(r.push, push, pushes.size(), [&] {
            for (const auto &[t, pkt] : pushes)
                t->timed->push(pkt);
        });

        pops.clear();
        for (Twin &t : bank) {
            const std::uint32_t target = drawTarget(occupancy, rng);
            while (t.planner->usedSlots() > target) {
                std::uint32_t k = 0;
                while (k < queues &&
                       !t.planner->peek(keyOf((t.popCursor + k) % queues)))
                    ++k;
                if (k == queues)
                    break;
                const QueueKey key = keyOf((t.popCursor + k) % queues);
                t.popCursor = (t.popCursor + k + 1) % queues;
                t.planner->pop(key);
                pops.emplace_back(&t, key);
            }
        }
        timeBatch(r.pop, pop, pops.size(), [&] {
            for (const auto &[t, key] : pops)
                (void)t->timed->pop(key);
        });
    }
    return r;
}

WorkloadReplay
replayWorkload(const SimSpec &spec, std::uint64_t seed, SpanTrace *trace,
               std::int32_t config_id)
{
    SpanScope span(trace, "replay.workload", config_id);
    const SimCommonConfig &common = spec.common();
    const std::uint32_t sources =
        spec.torus ? spec.grid.width * spec.grid.height
                   : spec.omega.numPorts;
    const double load =
        spec.torus ? spec.grid.offeredLoad : spec.omega.offeredLoad;
    const std::uint32_t classes =
        spec.torus ? spec.grid.trafficClasses : spec.omega.trafficClasses;
    const std::unique_ptr<core::InjectionProcess> process =
        core::makeInjectionProcess(common.workload, sources, load, classes);
    const SpanTrace::NameId name =
        trace ? trace->name("workload.offer_cycle") : 0;
    Random rng(seed);
    WorkloadReplay r;
    for (Cycle cycle = 1; cycle <= common.measureCycles; ++cycle) {
        std::uint64_t offers = 0;
        const Clock::time_point a = Clock::now();
        for (NodeId src = 0; src < sources; ++src)
            offers += process->shouldGenerate(src, cycle, rng) ? 1 : 0;
        const Clock::time_point b = Clock::now();
        charge(r.offer, a, b, sources);
        if (trace)
            trace->hot(name, config_id, a, b);
        r.offers += offers;
        ++r.cycles;
    }
    return r;
}

} // namespace perf
} // namespace damq

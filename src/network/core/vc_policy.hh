/**
 * @file
 * Virtual-channel assignment for the synchronized engine.
 *
 * A virtual channel multiplexes one physical link into several
 * independently flow-controlled queues.  The engine uses them to
 * make blocking flow control deadlock-free on wraparound rings: the
 * *dateline* policy (Dally & Seitz) starts every packet on VC 0 and
 * moves it to the highest VC when it crosses a ring's wraparound
 * link.  Minimal dimension-order routing crosses each ring's wrap
 * at most once, so the channel-dependency graph splits into a VC-0
 * chain that never contains the wrap link and a VC-(n-1) chain that
 * starts at it — both acyclic — with only VC-0 → VC-(n-1) edges
 * between them.  Turning into a new dimension restarts the packet
 * on VC 0; dimensions cannot form cycles among themselves because
 * dimension-order routing visits them in a fixed order.
 *
 * The VcAllocator answers one question per hop — which VC does this
 * packet occupy on the link out of this switch? — using only the
 * topology's ring geometry (Topology::portDimension /
 * hopCrossesDateline, read once into flat tables) and the packet's
 * current VC and arrival port.  It is the rule's one home: the
 * engine's capacity checks, its commits and the flit streams all
 * call it.  Topologies without rings make every policy collapse to
 * VC 0.
 */

#ifndef DAMQ_NETWORK_CORE_VC_POLICY_HH
#define DAMQ_NETWORK_CORE_VC_POLICY_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "network/core/link_state.hh"
#include "network/core/topology.hh"
#include "queueing/packet.hh"

namespace damq {

/** How packets are assigned to virtual channels, hop by hop. */
enum class VcPolicy
{
    None,    ///< every packet stays on VC 0
    Dateline ///< ring-wrap crossings escape to the highest VC
};

/** Human-readable policy name. */
const char *vcPolicyName(VcPolicy policy);

/** Parse a case-insensitive policy name; nullopt on bad input. */
std::optional<VcPolicy> tryVcPolicyFromString(const std::string &name);

namespace core {

/**
 * Per-hop VC assignment over a topology's ring geometry, on flat
 * tables (each local port's ring dimension, each link's dateline
 * bit) so the rule runs on array loads in the engine's hot loop.
 * With one VC (or the None policy, or a ring-free topology) every
 * answer is VC 0, which keeps single-VC runs byte-identical.
 */
class VcAllocator
{
  public:
    /** @param topology read once; need not outlive the allocator.
     *  @param policy   assignment rule.
     *  @param num_vcs  VCs per link (>= 1). */
    VcAllocator(const Topology &topology, VcPolicy policy,
                VcId num_vcs);

    /** VCs per link. */
    VcId numVcs() const { return vcs; }

    /** Assignment rule in use. */
    VcPolicy policy() const { return rule; }

    /**
     * VC that @p pkt occupies on @p link, the link out of its switch
     * through local port @p out (LinkId = switch * ports + out).  A
     * packet keeps its VC while it continues along the same ring,
     * restarts on VC 0 when it enters a new dimension (pkt.inPort
     * tells the two apart), and escapes to the highest VC on the hop
     * that crosses the ring's dateline.  Reads the packet's state at
     * the switch it leaves, before vc/inPort are rewritten.
     */
    VcId linkVc(const Packet &pkt, LinkId link, PortId out) const
    {
        if (!assigns)
            return 0;
        const std::int32_t dim = portDim[out];
        if (dim < 0)
            return 0; // delivery port — the sink keeps no VC queues
        // Continue on the current VC only while travelling along the
        // same ring; entering the fabric (inPort invalid) or turning
        // into a new dimension restarts on VC 0.
        VcId vc = 0;
        if (pkt.inPort != kInvalidPort && portDim[pkt.inPort] == dim)
            vc = pkt.vc;
        if (dateline[link])
            vc = static_cast<VcId>(vcs - 1);
        return vc;
    }

  private:
    VcPolicy rule;
    VcId vcs;
    bool assigns; ///< more than one VC under a non-None policy
    std::vector<std::int32_t> portDim;  ///< ring dimension per port
    std::vector<std::uint8_t> dateline; ///< per link: wraps a ring
};

} // namespace core
} // namespace damq

#endif // DAMQ_NETWORK_CORE_VC_POLICY_HH

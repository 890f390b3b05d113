#include "network/core/vc_policy.hh"

#include "common/enum_parse.hh"
#include "common/logging.hh"

namespace damq {

namespace {

constexpr EnumName<VcPolicy> kVcPolicyNames[] = {
    {VcPolicy::None, "none"},
    {VcPolicy::Dateline, "dateline"},
};

} // namespace

const char *
vcPolicyName(VcPolicy policy)
{
    if (const char *name = enumValueName(policy, kVcPolicyNames))
        return name;
    damq_panic("unknown VcPolicy ", static_cast<int>(policy));
}

std::optional<VcPolicy>
tryVcPolicyFromString(const std::string &name)
{
    return parseEnumName(std::string_view(name), kVcPolicyNames);
}

namespace core {

VcAllocator::VcAllocator(const Topology &topology, VcPolicy policy,
                         VcId num_vcs)
    : rule(policy), vcs(num_vcs),
      assigns(num_vcs > 1 && policy != VcPolicy::None)
{
    damq_assert(num_vcs >= 1, "links need at least one VC");
    const std::uint32_t ports = topology.portsPerSwitch();
    portDim.assign(ports, -1);
    for (PortId port = 0; port < ports; ++port)
        portDim[port] = topology.portDimension(port);
    dateline.assign(topology.numLinks(), 0);
    for (SwitchId sw = 0; sw < topology.numSwitches(); ++sw) {
        for (PortId out = 0; out < ports; ++out) {
            if (topology.hasLink(sw, out))
                dateline[linkIdOf(sw, out, ports)] =
                    topology.hopCrossesDateline(sw, out) ? 1 : 0;
        }
    }
}

} // namespace core
} // namespace damq

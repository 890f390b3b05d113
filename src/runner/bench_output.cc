#include "runner/bench_output.hh"

#include <cstdlib>
#include <iostream>
#include <string_view>

#include "common/logging.hh"

namespace damq {

BenchJsonFile::BenchJsonFile(const std::string &bench)
    : path("BENCH_" + bench + ".json"), file(path), writer(file)
{
    if (!file)
        damq_fatal("cannot open ", path, " for writing");
    writer.beginObject();
    writer.field("schema", "damq-bench-v1");
    writer.field("bench", bench);
}

BenchJsonFile::~BenchJsonFile()
{
    writer.endObject();
    file.close();
    // Stderr, so saved stdout golden files stay byte-identical.
    std::cerr << "wrote " << path << "\n";
}

void
writeWorkloadJson(JsonWriter &json,
                  const core::WorkloadConfig &workload,
                  std::uint32_t traffic_classes,
                  double legacy_burstiness,
                  Cycle legacy_mean_burst_cycles)
{
    using core::WorkloadKind;

    // Mirror the engine's deprecated-alias resolution so the file
    // describes the process that actually ran.
    core::WorkloadConfig effective = workload;
    if (effective.kind == WorkloadKind::Geometric &&
        legacy_burstiness > 1.0) {
        effective.kind = WorkloadKind::OnOff;
        effective.burstiness = legacy_burstiness;
        effective.meanBurstCycles = legacy_mean_burst_cycles;
    }

    json.key("workload");
    json.beginObject();
    json.field("kind", core::workloadKindName(effective.kind));
    json.field("trafficClasses",
               static_cast<std::uint64_t>(traffic_classes));
    switch (effective.kind) {
    case WorkloadKind::OnOff:
    case WorkloadKind::Mmpp:
        json.field("burstiness", effective.burstiness);
        json.field("meanBurstCycles",
                   static_cast<std::uint64_t>(
                       effective.meanBurstCycles));
        break;
    case WorkloadKind::Batch:
        json.field("batchPackets",
                   static_cast<std::uint64_t>(
                       effective.batchPackets));
        break;
    case WorkloadKind::ReqReply:
        json.field("replyWindow",
                   static_cast<std::uint64_t>(
                       effective.replyWindow));
        break;
    case WorkloadKind::Trace:
        json.field("traceFile", effective.traceFile);
        break;
    case WorkloadKind::Geometric:
        break;
    }
    json.endObject();
}

} // namespace damq

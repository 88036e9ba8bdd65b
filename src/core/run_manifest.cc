#include "core/run_manifest.h"

#include <cstdio>

#include "gbt/trainer.h"
#include "util/file_io.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/monitor.h"
#include "util/trace.h"
#include "util/version.h"

namespace mysawh::core {

namespace {

std::string Millis(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

std::string BuildRunManifestJson(const StudyConfig& config,
                                 const StudyResult& result) {
  JsonWriter w;
  w.BeginObject()
      .Key("schema").String("mysawh-run-manifest v1")
      .Key("git_describe").String(GitDescribe())
      .Key("fingerprint").String(StudyFingerprint(config))
      .Key("seed").Int(config.cohort.seed)
      .Key("eval_seed").Int(config.protocol.seed)
      .Key("model_family").String(ModelFamilyName(config.model_family))
      .Key("split_kernel").String(gbt::SplitKernelName());
  w.Key("cells").BeginObject();
  for (const auto& [key, timing] : result.timings) {
    w.Key(StudyCellName(key)).BeginObject()
        .Key("wall_ms").Raw(Millis(timing.wall_ms))
        .Key("cpu_ms").Raw(Millis(timing.cpu_ms))
        .Key("resumed").Bool(timing.resumed)
        .EndObject();
  }
  w.EndObject().Key("data_quality").BeginObject();
  for (const auto& [key, profile] : result.profiles) {
    w.Key(StudyCellName(key)).Raw(DataQualityJson(profile));
  }
  w.EndObject().Key("drift").BeginObject();
  for (const auto& [key, json] : result.drift_jsons) {
    w.Key(StudyCellName(key)).Raw(json);
  }
  w.EndObject().Key("calibration").BeginObject();
  for (const auto& [key, json] : result.calibration_jsons) {
    w.Key(StudyCellName(key)).Raw(json);
  }
  w.EndObject().Key("metrics").Raw(MetricsRegistry::Global().SnapshotJson());
  // Optional live-observability blocks: the study's closing heartbeat when
  // a monitor is running, and the per-span cost table when this run traced
  // with cost attribution. Plain runs omit both, keeping the manifest
  // byte-stable for the pre-monitor pipeline.
  if (Monitor* monitor = Monitor::Current()) {
    std::string status = monitor->BuildHeartbeatJson(/*final_heartbeat=*/true);
    while (!status.empty() &&
           (status.back() == '\n' || status.back() == '\r')) {
      status.pop_back();
    }
    w.Key("final_status").Raw(status);
  }
  if (TracingEnabled() && CostAttributionEnabled()) {
    const std::string costs = Tracer::Global().CostTableJson(/*top_n=*/10);
    if (!costs.empty()) w.Key("span_costs").Raw(costs);
  }
  return w.EndObject().Take();
}

Status WriteRunManifest(const std::string& path, const StudyConfig& config,
                        const StudyResult& result) {
  return WriteFileAtomic(path, BuildRunManifestJson(config, result) + "\n",
                         "manifest_write");
}

}  // namespace mysawh::core

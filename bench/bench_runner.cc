#include "bench/bench_runner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_common.h"

namespace nvmgc {

namespace {

BenchContext* g_current = nullptr;

void AppendEscaped(std::string* out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

void AppendString(std::string* out, const std::string& s) {
  out->push_back('"');
  AppendEscaped(out, s);
  out->push_back('"');
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

void AppendU64Map(std::string* out, const std::map<std::string, uint64_t>& m) {
  out->push_back('{');
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    AppendString(out, k);
    out->push_back(':');
    AppendU64(out, v);
  }
  out->push_back('}');
}

void AppendDoubleMap(std::string* out, const std::map<std::string, double>& m) {
  out->push_back('{');
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    AppendString(out, k);
    out->push_back(':');
    AppendDouble(out, v);
  }
  out->push_back('}');
}

void AppendHistogramMap(std::string* out, const std::map<std::string, HistogramSummary>& m) {
  out->push_back('{');
  bool first = true;
  for (const auto& [k, s] : m) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    AppendString(out, k);
    out->append(":{\"count\":");
    AppendU64(out, s.count);
    out->append(",\"p50\":");
    AppendU64(out, s.p50);
    out->append(",\"p95\":");
    AppendU64(out, s.p95);
    out->append(",\"p99\":");
    AppendU64(out, s.p99);
    out->append(",\"max\":");
    AppendU64(out, s.max);
    out->append(",\"mean\":");
    AppendDouble(out, s.mean);
    out->push_back('}');
  }
  out->push_back('}');
}

void AppendTimeline(std::string* out, const std::vector<TimelineSample>& samples) {
  out->push_back('[');
  bool first = true;
  for (const TimelineSample& s : samples) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    out->append("\n{\"pause\":");
    AppendU64(out, s.pause_id);
    out->append(",\"phase\":");
    AppendString(out, GcPhaseKindName(s.phase));
    out->append(",\"time_ns\":");
    AppendU64(out, s.time_ns);
    out->append(",\"read_mbps\":");
    AppendDouble(out, s.read_mbps);
    out->append(",\"write_mbps\":");
    AppendDouble(out, s.write_mbps);
    out->append(",\"interleave\":");
    AppendDouble(out, s.interleave);
    out->append(",\"model_mbps\":");
    AppendDouble(out, s.model_mbps);
    out->push_back('}');
  }
  out->push_back(']');
}

void AppendStringMap(std::string* out, const std::map<std::string, std::string>& m) {
  out->push_back('{');
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    AppendString(out, k);
    out->push_back(':');
    AppendString(out, v);
  }
  out->push_back('}');
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  if (written != body.size()) {
    std::fclose(f);
    return false;
  }
  return std::fclose(f) == 0;
}

// Accepts "--flag=value" and "--flag value"; returns true and advances *i on
// match.
bool MatchFlag(int argc, char** argv, int* i, const char* flag, std::string* value) {
  const char* arg = argv[*i];
  const size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0) {
    return false;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0' && *i + 1 < argc) {
    ++*i;
    *value = argv[*i];
    return true;
  }
  return false;
}

void PrintUsage(const char* name) {
  std::printf(
      "usage: %s [flags]\n"
      "  --threads=N     override the bench's default GC thread count\n"
      "  --heap-mb=N     override the default simulated heap size\n"
      "  --collector=K   g1 | ps\n"
      "  --json=PATH     write machine-readable results (nvmgc.bench.v2)\n"
      "  --trace=PATH    write a Chrome-trace / Perfetto JSON timeline\n"
      "  --timeline      embed per-pause NVM bandwidth samples in --json\n"
      "  --repeat=N      repetitions per data point (default 2)\n"
      "  --scale=F       allocation-volume scale (default 1.0)\n"
      "  --flight-record=DIR  write flight-recorder incident dumps under DIR\n"
      "  --fr-threshold-ns=N  absolute pause threshold for the anomaly trigger\n",
      name);
}

}  // namespace

BenchContext* CurrentBenchContext() { return g_current; }

void BenchContext::RecordRun(BenchRunRecord record) { runs_.push_back(std::move(record)); }

void BenchContext::AppendTrace(const GcTracer& tracer, const std::string& process_name) {
  if (!tracing()) {
    return;
  }
  if (!trace_events_.empty()) {
    trace_events_.append(",\n");
  }
  tracer.AppendChromeEvents(&trace_events_, next_trace_pid_++, process_name);
}

bool BenchContext::WriteJson(const std::string& bench_name) const {
  std::string out;
  out.append("{\"schema\":\"nvmgc.bench.v2\",\"bench\":");
  AppendString(&out, bench_name);
  out.append(",\"config\":{\"threads\":");
  AppendU64(&out, threads_);
  out.append(",\"heap_mb\":");
  AppendU64(&out, heap_mb_);
  out.append(",\"collector\":");
  AppendString(&out, has_collector_ ? CollectorKindName(collector_) : "default");
  out.append(",\"repeat\":");
  AppendU64(&out, static_cast<uint64_t>(BenchRepetitions()));
  out.append(",\"scale\":");
  AppendDouble(&out, BenchScale());
  out.append("},\n\"runs\":[\n");
  bool first_run = true;
  for (const BenchRunRecord& run : runs_) {
    if (!first_run) {
      out.append(",\n");
    }
    first_run = false;
    out.append("{\"label\":");
    AppendString(&out, run.label);
    out.append(",\"workload\":");
    AppendString(&out, run.workload);
    out.append(",\"config\":");
    AppendStringMap(&out, run.config);
    out.append(",\"reps\":");
    AppendU64(&out, static_cast<uint64_t>(run.reps));
    out.append(",\"result\":{\"total_ns\":");
    AppendU64(&out, run.result.total_ns);
    out.append(",\"gc_ns\":");
    AppendU64(&out, run.result.gc_ns);
    out.append(",\"app_ns\":");
    AppendU64(&out, run.result.app_ns);
    out.append(",\"gc_count\":");
    AppendU64(&out, run.result.gc_count);
    out.append(",\"bytes_allocated\":");
    AppendU64(&out, run.result.bytes_allocated);
    out.append(",\"gc_bandwidth_mbps\":");
    AppendDouble(&out, run.result.gc_bandwidth_mbps);
    out.append("},\"extra\":");
    AppendDoubleMap(&out, run.extra);
    out.append(",\"metrics\":{\"counters\":");
    AppendU64Map(&out, run.counters);
    out.append(",\"gauges\":");
    AppendU64Map(&out, run.gauges);
    out.append(",\"histograms\":");
    AppendHistogramMap(&out, run.histograms);
    out.push_back('}');
    if (timeline_) {
      out.append(",\"timeline\":");
      AppendTimeline(&out, run.timeline);
    }
    out.append(",\"pauses\":[");
    for (size_t id = 0; id < run.pauses.size(); ++id) {
      const GcCycleStats& pause = run.pauses[id];
      if (id > 0) {
        out.push_back(',');
      }
      out.append("\n{\"id\":");
      AppendU64(&out, id);
      out.append(",\"start_ns\":");
      AppendU64(&out, pause.start_ns);
      out.append(",\"values\":{");
      bool first_value = true;
      for (const CycleField& f : kCycleFields) {
        if (!first_value) {
          out.push_back(',');
        }
        first_value = false;
        AppendString(&out, f.name);
        out.push_back(':');
        AppendU64(&out, pause.*f.field);
      }
      out.append("}}");
    }
    out.append("]}");
  }
  out.append("\n]}\n");
  return WriteFile(json_path_, out);
}

bool BenchContext::WriteTrace() const {
  std::string out;
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  out.append(trace_events_);
  out.append("\n]}\n");
  return WriteFile(trace_path_, out);
}

int BenchMain(const char* name, BenchFn fn, int argc, char** argv) {
  BenchContext ctx;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(name);
      return 0;
    }
    if (MatchFlag(argc, argv, &i, "--threads", &value)) {
      ctx.threads_ = static_cast<uint32_t>(std::atoi(value.c_str()));
      if (ctx.threads_ == 0) {
        std::fprintf(stderr, "%s: --threads must be a positive integer, got '%s'\n", name,
                     value.c_str());
        return 2;
      }
    } else if (MatchFlag(argc, argv, &i, "--heap-mb", &value)) {
      ctx.heap_mb_ = static_cast<uint32_t>(std::atoi(value.c_str()));
      if (ctx.heap_mb_ == 0) {
        std::fprintf(stderr, "%s: --heap-mb must be a positive integer, got '%s'\n", name,
                     value.c_str());
        return 2;
      }
    } else if (MatchFlag(argc, argv, &i, "--collector", &value)) {
      if (value == "g1") {
        ctx.collector_ = CollectorKind::kG1;
      } else if (value == "ps") {
        ctx.collector_ = CollectorKind::kParallelScavenge;
      } else {
        std::fprintf(stderr, "%s: --collector must be 'g1' or 'ps', got '%s'\n", name,
                     value.c_str());
        return 2;
      }
      ctx.has_collector_ = true;
    } else if (MatchFlag(argc, argv, &i, "--json", &value)) {
      ctx.json_path_ = value;
    } else if (MatchFlag(argc, argv, &i, "--trace", &value)) {
      ctx.trace_path_ = value;
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      ctx.timeline_ = true;
    } else if (MatchFlag(argc, argv, &i, "--flight-record", &value)) {
      ctx.flight_record_dir_ = value;
    } else if (MatchFlag(argc, argv, &i, "--fr-threshold-ns", &value)) {
      ctx.fr_threshold_ns_ = static_cast<uint64_t>(std::atoll(value.c_str()));
      if (ctx.fr_threshold_ns_ == 0) {
        std::fprintf(stderr, "%s: --fr-threshold-ns must be a positive integer, got '%s'\n",
                     name, value.c_str());
        return 2;
      }
    } else if (MatchFlag(argc, argv, &i, "--repeat", &value)) {
      ctx.repeat_ = std::atoi(value.c_str());
      if (ctx.repeat_ < 1) {
        std::fprintf(stderr, "%s: --repeat must be >= 1, got '%s'\n", name, value.c_str());
        return 2;
      }
    } else if (MatchFlag(argc, argv, &i, "--scale", &value)) {
      ctx.scale_ = std::atof(value.c_str());
      if (ctx.scale_ <= 0.0) {
        std::fprintf(stderr, "%s: --scale must be > 0, got '%s'\n", name, value.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", name, argv[i]);
      PrintUsage(name);
      return 2;
    }
  }
  if (ctx.repeat_ > 0) {
    SetBenchRepetitions(ctx.repeat_);
  }
  if (ctx.scale_ > 0.0) {
    SetBenchScale(ctx.scale_);
  }

  g_current = &ctx;
  const int rc = fn(ctx);
  g_current = nullptr;

  if (rc == 0 && !ctx.json_path_.empty() && !ctx.WriteJson(name)) {
    std::fprintf(stderr, "%s: failed to write --json=%s\n", name, ctx.json_path_.c_str());
    return 3;
  }
  if (rc == 0 && !ctx.trace_path_.empty() && !ctx.WriteTrace()) {
    std::fprintf(stderr, "%s: failed to write --trace=%s\n", name, ctx.trace_path_.c_str());
    return 3;
  }
  return rc;
}

}  // namespace nvmgc

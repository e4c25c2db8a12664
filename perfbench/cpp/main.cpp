// perfbench: the regime benchmark's measuring binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Runs one workload (workloads.h) for S seconds from inputs derived from
// seed N, checks every output, prints human-readable lines (fingerprint,
// per-workload figures under their own names) and, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer metrics of the
// public-call replay. Exit status: 0 when every check passed, 1 when an
// output check failed, 2 on bad arguments, 3 when the build is not an
// optimized, unsanitized Release build (nothing is reported then).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "fingerprint.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(value, o.seed)) return usage("--seed needs an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, n) || n == 0 || n > 600)
        return usage("--seconds needs an integer in [1, 600]");
      o.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage("--trace takes 0 or 1");
      o.trace = value[0] == '1';
      have_trace = true;
    } else if (arg == "--trace-out") {
      o.trace_path = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end())
    return usage(("unknown workload " + o.workload).c_str());

  const perfbench::fingerprint fp = perfbench::take_fingerprint();
  std::printf("# fingerprint %s\n", fp.json().c_str());
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  const bool optimized = false;
#else
  const bool optimized = true;
#endif
  if (fp.build_type != "Release" || fp.sanitized || !optimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s%s build; build "
                 "perfbench/ with CMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 fp.build_type.empty() ? "untyped" : fp.build_type.c_str(),
                 fp.sanitized ? " sanitized" : "");
    return 3;
  }
  for (const std::string& knob : fp.non_default_env)
    std::printf("# WARNING: %s is set to a non-default value; this run is not "
                "in the standard regime\n",
                knob.c_str());

  o.lanes = std::min<std::size_t>(4, fp.nproc);
  o.trace_header = "# perfbench workload=" + o.workload +
                   " seed=" + std::to_string(o.seed) + "\n# fingerprint " +
                   fp.json() + "\n";
  std::printf("# workload %s seed %llu seconds %.0f trace %d lanes %zu\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.lanes);
  std::fflush(stdout);

  perfbench::run_result r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& note : r.notes)
    std::printf("# %s: %s\n", o.workload.c_str(), note.c_str());
  for (const perfbench::metric& m : r.metrics)
    std::printf("%-16s %-36s %16.6f %s\n", o.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::metric& m = r.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct && r.attempted > 0 ? 0 : 1;
}

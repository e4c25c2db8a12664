#include "fingerprint.h"

#include <cpuid.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace perfbench {

namespace {

std::string cpu_brand() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf)
    __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

// Data/unified cache sizes from the deterministic cache-parameter leaf
// (4 on Intel, 0x8000001D on AMD).
void cache_sizes(fingerprint& f) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  __get_cpuid(0, &a, &b, &c, &d);
  const bool amd = b == 0x68747541u;  // "Auth"enticAMD
  const unsigned leaf = amd ? 0x8000001Du : 4u;
  const unsigned max_leaf = __get_cpuid_max(amd ? 0x80000000u : 0u, nullptr);
  if (max_leaf < leaf) return;
  for (unsigned sub = 0; sub < 16; ++sub) {
    __cpuid_count(leaf, sub, a, b, c, d);
    const unsigned type = a & 0x1f;
    if (type == 0) break;
    if (type == 2) continue;  // instruction cache
    const unsigned level = (a >> 5) & 0x7;
    const std::size_t bytes = static_cast<std::size_t>((b >> 22) + 1) *
                              (((b >> 12) & 0x3ff) + 1) * ((b & 0xfff) + 1) *
                              (static_cast<std::size_t>(c) + 1);
    if (level == 1) f.l1d_kib = bytes / 1024;
    if (level == 2) f.l2_kib = bytes / 1024;
    if (level == 3) f.l3_kib = bytes / 1024;
  }
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

// Compile-time facts handed in by perfbench/CMakeLists.txt.
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER ""
#endif
#ifndef PERFBENCH_HOST_AVX2
#define PERFBENCH_HOST_AVX2 0
#endif

}  // namespace

fingerprint take_fingerprint() {
  fingerprint f;
  cpu_set_t set;
  CPU_ZERO(&set);
  f.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? static_cast<std::size_t>(CPU_COUNT(&set))
                : std::max(1u, std::thread::hardware_concurrency());
  f.cpu_model = cpu_brand();
  cache_sizes(f);
  __builtin_cpu_init();
  f.cpu_avx2 = __builtin_cpu_supports("avx2");
  f.kernels_avx2 = PERFBENCH_HOST_AVX2 != 0;
  f.build_type = PERFBENCH_BUILD_TYPE;
  f.compiler = PERFBENCH_COMPILER;
  f.cxx_flags = PERFBENCH_CXX_FLAGS;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  f.sanitized = true;
#endif
  if (f.cxx_flags.find("-fsanitize") != std::string::npos) f.sanitized = true;

  // Cache budgets default to 64 MiB; telemetry defaults to unset. The
  // benchmark pins its own lane count, so BACKFI_THREADS is recorded only.
  const struct {
    const char* name;
    const char* fallback;
  } knobs[] = {{"BACKFI_NOISE_CACHE_MB", "64"},
               {"BACKFI_EXCITATION_CACHE_MB", "64"},
               {"BACKFI_TELEMETRY", ""},
               {"BACKFI_THREADS", nullptr}};
  for (const auto& k : knobs) {
    const char* raw = std::getenv(k.name);
    const std::string value = raw ? raw : "";
    f.env.emplace_back(k.name, value);
    if (k.fallback && !value.empty() && value != k.fallback)
      f.non_default_env.push_back(k.name);
  }
  return f;
}

std::string fingerprint::json() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %zu, \"cpu\": \"%s\", \"l1d_kib\": %zu, "
                "\"l2_kib\": %zu, \"l3_kib\": %zu, \"cpu_avx2\": %s, "
                "\"kernels_avx2\": %s, ",
                nproc, escape(cpu_model).c_str(), l1d_kib, l2_kib, l3_kib,
                cpu_avx2 ? "true" : "false", kernels_avx2 ? "true" : "false");
  std::string out = buf;
  auto field = [&out](const char* key, const std::string& value) {
    out += "\"";
    out += key;
    out += "\": \"";
    out += escape(value);
    out += "\", ";
  };
  field("build_type", build_type);
  field("compiler", compiler);
  field("cxx_flags", cxx_flags);
  out += "\"sanitized\": ";
  out += sanitized ? "true" : "false";
  out += ", \"env\": {";
  for (std::size_t i = 0; i < env.size(); ++i) {
    if (i) out += ", ";
    out += "\"";
    out += env[i].first;
    out += "\": ";
    if (env[i].second.empty()) {
      out += "null";
    } else {
      out += "\"";
      out += escape(env[i].second);
      out += "\"";
    }
  }
  out += "}, \"env_default\": ";
  out += non_default_env.empty() ? "true" : "false";
  out += "}";
  return out;
}

}  // namespace perfbench

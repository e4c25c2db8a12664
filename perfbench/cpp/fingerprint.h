// Hardware, build and environment fingerprint carried by every result, so
// numbers from different machines or builds are never compared unawares.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct fingerprint {
  std::size_t nproc = 1;  ///< CPUs this process may run on
  std::string cpu_model;
  std::size_t l1d_kib = 0;
  std::size_t l2_kib = 0;
  std::size_t l3_kib = 0;
  bool cpu_avx2 = false;       ///< the CPU supports AVX2
  bool kernels_avx2 = false;   ///< src/ kernels were compiled with AVX2
  std::string build_type;
  std::string compiler;
  std::string cxx_flags;
  bool sanitized = false;
  /// Environment knobs the simulator reads (name, value or "" when unset).
  std::vector<std::pair<std::string, std::string>> env;
  /// Knobs set to something other than their default.
  std::vector<std::string> non_default_env;

  /// One-line JSON object.
  std::string json() const;
};

fingerprint take_fingerprint();

}  // namespace perfbench

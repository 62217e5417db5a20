#include "util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/expect.h"

namespace fbedge::simd {

namespace {

// Resolved lazily, then latched: 0 = unresolved, else Path + 1.
std::atomic<int> g_path{0};
std::atomic<const char*> g_source{"auto"};

Path resolve_from_env() {
  const char* env = std::getenv("FBEDGE_SIMD");
  const char* mode = (env && *env) ? env : "auto";
  if (std::strcmp(mode, "off") == 0 || std::strcmp(mode, "scalar") == 0) {
    g_source.store("off", std::memory_order_relaxed);
    return Path::kScalar;
  }
  if (std::strcmp(mode, "avx2") == 0) {
    // A forced path that cannot run must fail loudly: the CI scalar-rot
    // guard relies on FBEDGE_SIMD=avx2 never meaning "maybe scalar".
    FBEDGE_EXPECT(compiled_avx2(), "FBEDGE_SIMD=avx2 but this build has no AVX2 kernels");
    FBEDGE_EXPECT(cpu_supports_avx2(), "FBEDGE_SIMD=avx2 but the CPU lacks AVX2");
    g_source.store("avx2", std::memory_order_relaxed);
    return Path::kAvx2;
  }
  FBEDGE_EXPECT(std::strcmp(mode, "auto") == 0,
                "FBEDGE_SIMD must be auto, off, or avx2");
  g_source.store("auto", std::memory_order_relaxed);
  return compiled_avx2() && cpu_supports_avx2() ? Path::kAvx2 : Path::kScalar;
}

}  // namespace

bool compiled_avx2() {
#if FBEDGE_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Path active_path() {
  int p = g_path.load(std::memory_order_acquire);
  if (p == 0) {
    const Path resolved = resolve_from_env();
    p = static_cast<int>(resolved) + 1;
    int expected = 0;
    // First resolver wins; concurrent resolvers computed the same value
    // (the environment does not change mid-process).
    if (!g_path.compare_exchange_strong(expected, p, std::memory_order_acq_rel)) {
      p = expected;
    }
  }
  return static_cast<Path>(p - 1);
}

void force_path(Path path) {
  if (path == Path::kAvx2) {
    FBEDGE_EXPECT(compiled_avx2() && cpu_supports_avx2(),
                  "force_path(kAvx2) on a host without AVX2");
  }
  g_path.store(static_cast<int>(path) + 1, std::memory_order_release);
  g_source.store("forced", std::memory_order_relaxed);
}

const char* path_name(Path path) {
  return path == Path::kAvx2 ? "avx2" : "scalar";
}

const char* dispatch_source() {
  active_path();  // make sure resolution ran
  return g_source.load(std::memory_order_relaxed);
}

}  // namespace fbedge::simd

// Runtime SIMD dispatch for the HD batch kernel.
//
// goodput/hdratio's batched HD evaluation (evaluate_hd_batch) exists in
// two implementations: a scalar reference — the always-built, pinned
// definition of the output — and an AVX2 variant compiled in a separate
// translation unit with `-mavx2 -ffp-contract=off`. It is the one kernel
// whose AVX2 variant pays for itself (DESIGN.md §4g); every other stage has
// only its scalar body. Which one runs is a pure process-wide decision
// made here, once:
//
//   FBEDGE_SIMD=auto   (default) AVX2 iff the build has it and the CPU
//                      reports it; scalar otherwise.
//   FBEDGE_SIMD=off    scalar everywhere (the reference path).
//   FBEDGE_SIMD=avx2   AVX2, fail-fast if the build or CPU cannot — a
//                      forced path silently falling back to scalar is
//                      exactly the rot the CI matrix exists to prevent.
//
// The bitwise contract (see DESIGN.md "SIMD layer"): the vectorized kernel
// must produce byte-identical output to its scalar reference for every
// input. Lanes hold *independent* sessions; doubles are only ever combined
// in the same fixed order as the scalar code, divergent lanes are masked or
// compacted rather than reordered, and the AVX2 TU is compiled with FP
// contraction off so no FMA changes a rounding. Tests
// (tests/simd_kernels_test.cpp) pin scalar vs AVX2 bitwise-equal; the
// simd_identity ctest and CI pin whole-bench byte identity between
// FBEDGE_SIMD=off and FBEDGE_SIMD=avx2.
#pragma once

namespace fbedge::simd {

enum class Path { kScalar = 0, kAvx2 = 1 };

/// True when this binary contains the AVX2 kernel (x86-64 build with a
/// compiler that accepts -mavx2).
bool compiled_avx2();

/// True when the CPU this process runs on reports AVX2.
bool cpu_supports_avx2();

/// The dispatched path, resolved once per process from FBEDGE_SIMD and the
/// CPU (see file comment). Thread-safe; stable for the process lifetime
/// unless a test overrides it via force_path().
Path active_path();

inline bool avx2_active() { return active_path() == Path::kAvx2; }

/// Test hook: overrides the resolved path for the rest of the process (the
/// differential tests run both kernels side by side through the public
/// dispatching entry points). Forcing kAvx2 fails fast when unavailable.
void force_path(Path path);

const char* path_name(Path path);
inline const char* active_path_name() { return path_name(active_path()); }

/// How the active path was chosen, for --verbose / RunStats reporting:
/// "auto", "off", "avx2" (the FBEDGE_SIMD value), or "forced" after
/// force_path().
const char* dispatch_source();

}  // namespace fbedge::simd

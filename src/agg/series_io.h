// Binary serialization of GroupSeries — the per-group ingest artifact.
//
// A saved series round-trips bitwise: every quantile, mean, count, and
// traffic total read from the loaded series matches the original to the
// last bit, so analysis on a deserialized artifact is byte-identical to
// analysis on the freshly ingested one (analysis/ingest_cache.h relies on
// this). Doubles travel as raw IEEE-754 bit patterns via util/binio.h.
#pragma once

#include <cstddef>
#include <cstdint>

#include "agg/aggregation.h"
#include "agg/cell_summary.h"
#include "util/binio.h"

namespace fbedge {

/// Format epoch for ingest artifacts. BUMP POLICY: any change that can
/// alter the bytes an ingest run produces — the serialization layout
/// below, RouteWindowAgg/TDigest/Welford state, the generator, sampler,
/// goodput evaluation, coalescing, or windowing — REQUIRES incrementing
/// this constant, so stale artifacts from older builds are rejected and
/// silently re-ingested instead of yielding wrong results. The constant
/// lives here, next to the serializer, so layout edits and epoch bumps
/// land in the same diff.
///
/// Epoch 2: the artifact framing moved to per-blob XXH64 checksums in a
/// trailing index (analysis/ingest_cache.h); blob bytes are unchanged.
inline constexpr std::uint32_t kIngestArtifactEpoch = 2;

/// Exact number of bytes save_group_series() will append for `series`.
/// Compresses every cell's sketches along the way — work save() repeats as
/// a no-op — so computing the size first costs nothing beyond the walk.
std::size_t group_series_saved_size(const GroupSeries& series);

/// Appends `series` (continent + every window's route cells) to `w`,
/// reserving the output buffer from the precomputed encoded size so the
/// whole artifact lands in one allocation.
void save_group_series(const GroupSeries& series, ByteWriter& w);

/// Rebuilds `series` from `r`. The series is emptied first (recycling its
/// cells into `pool` when one is given, and drawing replacement cells from
/// it, so warm loads into a pooled series allocate almost nothing).
/// Returns false on truncated or structurally invalid input, leaving
/// `series` empty and `r` failed; never crashes on corrupt bytes.
bool load_group_series(ByteReader& r, GroupSeries& series, RouteAggPool* pool = nullptr);

/// Summarizes a saved series straight from `r`'s bytes into `out`, at z =
/// confidence_z(alpha): each cell is read in place (SavedRouteWindowAgg)
/// and each of its two digests walked where it lies before the next field
/// is read, so no GroupSeries, cell or digest is built, no centroid is
/// copied, and `r` may refill its window between any two fields (a blob
/// streamed through IngestArtifactReader::parse). The series framing, the
/// cell layout and the digest header are parsed by the same code as
/// load_group_series, which therefore accepts exactly the same inputs, and
/// `out` equals summarize_series() of the series it would have loaded.
/// Returns false on the inputs load_group_series rejects, leaving `out`
/// empty and `r` failed.
bool summarize_group_series(ByteReader& r, double z, SeriesSummary& out);

}  // namespace fbedge

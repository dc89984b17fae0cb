// The versioned binary model snapshot — the materialized artifact of the
// offline component (Section 2.2.3: learning crunches T once; online
// detection is a metric computation plus a lookup into this file).
//
// Wire layout (all integers little-endian, fixed width; DESIGN.md §10
// for the container, §12 for the v2 flat layout):
//
//   header          magic[8] = "UDSNAP\r\n"   (the \r\n catches text-mode
//                   u32 format_version         line-ending mangling, like
//                   u32 section_count          PNG's signature does)
//   section table   section_count entries of
//                   { u32 id, u32 crc32, u64 offset, u64 length }
//                   in strictly ascending id order
//   payloads        section bytes at the recorded offsets
//
// Each section's CRC-32 covers its payload bytes, so truncation and
// bit-level corruption are detected before any payload is decoded.
// Encoding is fully deterministic (sorted subsets, tokens, patterns):
// Save -> Load -> Save produces identical bytes.
//
// Version 2 (model_format/snapshot_v2.h) is the one readable layout: it
// lays every payload out flat and 64-byte aligned so a reader can mmap
// the file and query it in place. Compatibility policy: every reader
// runs one header check (snapshot_internal::CheckContainerHeader), which
// rejects the retired v1 layout and version 0 as Corruption and a
// format_version newer than kSnapshotVersion as NotImplemented (the
// layout may have changed incompatibly); unknown section ids within v2
// are skipped (additive sections do not require a version bump).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "learn/model.h"
#include "model_format/snapshot_validation.h"
#include "util/result.h"

namespace unidetect {

inline constexpr std::string_view kSnapshotMagic{"UDSNAP\r\n", 8};
inline constexpr uint32_t kSnapshotVersion = 2;

/// \brief Section identifiers. Values are part of the wire format.
/// A v2 file carries {1, 5..10}; ids 2-4 belonged to the retired v1
/// layout and stay reserved. Ids 11-12 are the optional v2 half-precision
/// observation variant: a v2 file carries EITHER the f32 sections {7, 8}
/// or the f16 sections {11, 12}, never both — an additive encoding under
/// the section-skip compatibility rule, so no version bump. Id 13 marks
/// a *delta* artifact (model_format/delta_snapshot.h): a small v2 model
/// chained to its base snapshot by content hash. Old readers skip it
/// (after CRC-checking it) and decode the delta as a plain model —
/// intentional, since a delta IS a model over the incremental shards.
enum class SnapshotSection : uint32_t {
  kOptions = 1,        ///< ModelOptions, fixed-width fields
  kRetiredV1Subsets = 2,       ///< retired v1, never reuse
  kRetiredV1TokenIndex = 3,    ///< retired v1, never reuse
  kRetiredV1PatternIndex = 4,  ///< retired v1, never reuse
  kStringPool = 5,     ///< v2: interned bytes of all tokens/patterns
  kSubsetIndex = 6,    ///< v2: key-sorted fixed-width subset directory
  kObservations = 7,   ///< v2: contiguous f32 pres/posts arrays
  kTreeLevels = 8,     ///< v2: flat per-subset merge-sort-tree levels
  kTokenIndex2 = 9,    ///< v2: pool-ref token entries
  kPatternIndex2 = 10, ///< v2: pool-ref pattern + pair entries
  kObservationsF16 = 11, ///< v2: binary16 pres/posts (replaces id 7)
  kTreeLevelsF16 = 12,   ///< v2: binary16 tree levels (replaces id 8)
  kDeltaManifest = 13,   ///< v2: delta chain manifest (delta_snapshot.h)
};

/// \brief Encodes a finalized model as one v2 snapshot blob, keeping the
/// model's observation width (ObservationEncoding::kPreserve).
std::string EncodeModelSnapshot(const Model& model);

/// \brief Decodes a v2 snapshot blob into a finalized, query-ready model.
/// Always copies into owned storage — in-memory buffers carry no
/// alignment guarantee; the zero-copy path is LoadModelFromFile /
/// ModelView over a mapped file.
///
/// Never returns a partial model: corrupt, truncated, checksum-failed or
/// retired-v1 input yields Status::Corruption; input written by a newer
/// format version yields Status::NotImplemented.
Result<Model> DecodeModelSnapshot(
    std::string_view bytes,
    SnapshotValidation validation = SnapshotValidation::kFull);

/// \brief Maps a v2 snapshot file and decodes it zero-copy (an owned
/// decode on big-endian hosts), with the same typed errors as
/// DecodeModelSnapshot. Backs Model::Load and DetectionService::Reload.
Result<Model> LoadModelFromFile(
    const std::string& path,
    SnapshotValidation validation = SnapshotValidation::kFull);

}  // namespace unidetect

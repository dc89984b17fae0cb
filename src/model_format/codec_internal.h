// Internal helpers shared by the UDSNAP readers and writers: the v2
// codec (snapshot_v2.cc), the container entry points (model_snapshot.cc)
// and the delta-chain identity code (delta_snapshot.cc). Not part of the
// public API.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "learn/model.h"
#include "util/binary_io.h"
#include "util/result.h"

namespace unidetect {
namespace snapshot_internal {

inline constexpr size_t kHeaderBytes = 8 + 4 + 4;
inline constexpr size_t kTableEntryBytes = 4 + 4 + 8 + 8;

/// \brief The fixed-width options payload (section id 1).
std::string EncodeOptionsPayload(const ModelOptions& options);
Result<ModelOptions> DecodeOptionsPayload(std::string_view payload);

/// \brief Human-readable section name for error messages.
std::string SectionName(uint32_t id);

/// \brief The container framing every reader needs before it walks the
/// section table.
struct ContainerHeader {
  uint32_t section_count = 0;
  uint64_t prefix_bytes = 0;  ///< header + section table
};

/// \brief The one UDSNAP container-header check, run by every reader:
/// the owned and mapped decoders, SnapshotArtifactId, FindDeltaManifest
/// and ReadSnapshotIdentity. `header` starts with the artifact's first
/// kHeaderBytes; `total_bytes` is the size of the whole buffer or file.
///
/// Bad magic or a truncated header is Corruption. Format version 0 and
/// the retired v1 layout are Corruption too, so no reader (and no
/// artifact hash) accepts a file that no loader can open; a version
/// newer than kSnapshotVersion is NotImplemented. The section table's
/// extent is checked against `total_bytes` before any caller sizes a
/// container by section_count.
Result<ContainerHeader> CheckContainerHeader(std::string_view header,
                                             uint64_t total_bytes);

/// \brief One section-table row.
struct SectionEntry {
  uint32_t id = 0;
  uint32_t crc = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// \brief Reads the next table row; false when the reader runs short.
bool ReadSectionEntry(BinaryReader* reader, SectionEntry* entry);

}  // namespace snapshot_internal
}  // namespace unidetect

#include "model_format/delta_snapshot.h"

#include <fstream>

#include "model_format/codec_internal.h"
#include "model_format/model_snapshot.h"
#include "util/binary_io.h"
#include "util/bounded_reader.h"
#include "util/checked.h"
#include "util/string_util.h"

namespace unidetect {

namespace {

using snapshot_internal::CheckContainerHeader;
using snapshot_internal::ContainerHeader;
using snapshot_internal::kHeaderBytes;
using snapshot_internal::ReadSectionEntry;
using snapshot_internal::SectionEntry;

constexpr uint32_t kManifestVersion = 1;
constexpr size_t kManifestPayloadBytes = 4 + 4 + 8 + 8 + 8;

// Scans the section table of `prefix` (header + table, already passed
// through CheckContainerHeader) for the manifest row; nullopt when the
// artifact is a base, not a delta.
Result<std::optional<SectionEntry>> FindManifestRow(std::string_view prefix,
                                                    uint32_t section_count) {
  BinaryReader table(prefix.substr(kHeaderBytes));
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionEntry row;
    if (!ReadSectionEntry(&table, &row)) {
      return Status::Corruption("Delta manifest: truncated section table");
    }
    if (row.id != static_cast<uint32_t>(SnapshotSection::kDeltaManifest)) {
      continue;
    }
    if (row.length != kManifestPayloadBytes) {
      return Status::Corruption(StrCat("Delta manifest: section length ",
                                       row.length, " (want ",
                                       kManifestPayloadBytes, ")"));
    }
    return std::optional<SectionEntry>(row);
  }
  return std::optional<SectionEntry>();
}

// Always checksummed — the payload is 32 bytes, and the chain fields
// steer which layers serving stacks, so they are never trusted raw.
Result<DeltaManifest> DecodeManifestSection(const SectionEntry& row,
                                            std::string_view payload) {
  if (Crc32(payload) != row.crc) {
    return Status::Corruption(
        "Delta manifest: checksum mismatch in manifest section");
  }
  return DecodeDeltaManifestPayload(payload);
}

}  // namespace

std::string EncodeDeltaManifestPayload(const DeltaManifest& manifest) {
  std::string out;
  AppendU32(&out, kManifestVersion);
  AppendU32(&out, 0);  // reserved
  AppendU64(&out, manifest.base_id);
  AppendU64(&out, manifest.parent_id);
  AppendU64(&out, manifest.depth);
  return out;
}

Result<DeltaManifest> DecodeDeltaManifestPayload(std::string_view payload) {
  BinaryReader reader(payload);
  uint32_t version = 0;
  uint32_t reserved = 0;
  DeltaManifest manifest;
  if (!reader.ReadU32(&version) || !reader.ReadU32(&reserved) ||
      !reader.ReadU64(&manifest.base_id) ||
      !reader.ReadU64(&manifest.parent_id) ||
      !reader.ReadU64(&manifest.depth)) {
    return Status::Corruption("Delta manifest: truncated payload");
  }
  if (!reader.empty()) {
    return Status::Corruption("Delta manifest: trailing bytes");
  }
  if (version > kManifestVersion) {
    return Status::NotImplemented(
        StrCat("Delta manifest: version ", version,
               " is newer than the supported version ", kManifestVersion));
  }
  if (version != kManifestVersion) {
    return Status::Corruption("Delta manifest: bad version");
  }
  if (reserved != 0) {
    return Status::Corruption("Delta manifest: nonzero reserved field");
  }
  if (manifest.depth == 0 || manifest.depth > kMaxDeltaDepth) {
    return Status::Corruption(
        StrCat("Delta manifest: depth ", manifest.depth,
               " outside [1, ", kMaxDeltaDepth, "]"));
  }
  if (manifest.depth == 1 && manifest.parent_id != manifest.base_id) {
    return Status::Corruption(
        "Delta manifest: first delta's parent must be its base");
  }
  return manifest;
}

Result<uint64_t> SnapshotArtifactId(std::string_view bytes) {
  UNIDETECT_ASSIGN_OR_RETURN(const ContainerHeader header,
                             CheckContainerHeader(bytes, bytes.size()));
  // FNV-1a-64 over header + section table. The table rows carry every
  // section's CRC-32, so this commits to all payload content at
  // O(#sections) cost.
  uint64_t hash = 14695981039346656037ULL;
  for (uint64_t i = 0; i < header.prefix_bytes; ++i) {
    hash ^= static_cast<uint8_t>(bytes[static_cast<size_t>(i)]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

Result<std::optional<DeltaManifest>> FindDeltaManifest(
    std::string_view bytes) {
  UNIDETECT_ASSIGN_OR_RETURN(const ContainerHeader header,
                             CheckContainerHeader(bytes, bytes.size()));
  UNIDETECT_ASSIGN_OR_RETURN(const std::optional<SectionEntry> row,
                             FindManifestRow(bytes, header.section_count));
  if (!row.has_value()) return std::optional<DeltaManifest>();
  // SubSpan overflow-checks offset + length against the buffer, so a
  // hostile table row cannot walk out of bounds here.
  const BoundedReader file(bytes, "Delta manifest");
  UNIDETECT_ASSIGN_OR_RETURN(const std::string_view payload,
                             file.SubSpan(row->offset, row->length));
  UNIDETECT_ASSIGN_OR_RETURN(const DeltaManifest manifest,
                             DecodeManifestSection(*row, payload));
  return std::optional<DeltaManifest>(manifest);
}

Result<SnapshotIdentity> ReadSnapshotIdentity(const std::string& path) {
  // Bounded I/O: header + section table + (if present) the 32-byte
  // manifest payload. Reading the whole artifact here would put an
  // O(file size) pass on the Reload/ApplyDelta hot path and forfeit the
  // mmap reload floor.
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return Status::IOError(
        StrCat("Snapshot identity: cannot open ", path));
  }
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  if (file_size < kHeaderBytes) {
    return Status::Corruption("Snapshot identity: not a UDSNAP container");
  }
  std::string header(kHeaderBytes, '\0');
  if (!in.read(header.data(), static_cast<std::streamsize>(header.size()))) {
    return Status::IOError(StrCat("Snapshot identity: short read on ", path));
  }
  UNIDETECT_ASSIGN_OR_RETURN(const ContainerHeader container,
                             CheckContainerHeader(header, file_size));
  std::string prefix = std::move(header);
  prefix.resize(static_cast<size_t>(container.prefix_bytes));
  if (!in.read(prefix.data() + kHeaderBytes,
               static_cast<std::streamsize>(container.prefix_bytes -
                                            kHeaderBytes))) {
    return Status::IOError(StrCat("Snapshot identity: short read on ", path));
  }

  SnapshotIdentity identity;
  UNIDETECT_ASSIGN_OR_RETURN(identity.artifact_id, SnapshotArtifactId(prefix));

  // Find the manifest row and fetch just its payload.
  UNIDETECT_ASSIGN_OR_RETURN(
      const std::optional<SectionEntry> row,
      FindManifestRow(prefix, container.section_count));
  if (!row.has_value()) return identity;
  UNIDETECT_ASSIGN_OR_RETURN(
      const uint64_t section_end,
      CheckedAdd<uint64_t>(row->offset, row->length, "delta manifest extent"));
  if (section_end > file_size) {
    return Status::Corruption(
        "Delta manifest: section extends past end of file");
  }
  std::string payload(kManifestPayloadBytes, '\0');
  in.seekg(static_cast<std::streamoff>(row->offset), std::ios::beg);
  if (!in.read(payload.data(), static_cast<std::streamsize>(payload.size()))) {
    return Status::IOError(StrCat("Snapshot identity: short read on ", path));
  }
  UNIDETECT_ASSIGN_OR_RETURN(identity.manifest,
                             DecodeManifestSection(*row, payload));
  return identity;
}

}  // namespace unidetect

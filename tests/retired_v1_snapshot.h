// A well-formed file in the retired UDSNAP v1 layout, for tests that pin
// how the v2-only readers treat it. v1 carried inline, length-prefixed
// payloads in sections 1-4 (options, subsets, token index, pattern
// index) behind the same container header as v2, with format_version 1.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "learn/model.h"
#include "model_format/codec_internal.h"
#include "model_format/model_snapshot.h"
#include "util/binary_io.h"

namespace unidetect {

/// \brief One subset with three observations and a one-token index,
/// exactly as the v1 writer laid such a model out.
inline std::string RetiredV1Snapshot() {
  std::vector<std::pair<uint32_t, std::string>> sections(4);
  sections[0] = {1, snapshot_internal::EncodeOptionsPayload(ModelOptions{})};

  std::string& subsets = sections[1].second;  // u64 count, then per key
  sections[1].first = 2;                      // {u64 key, u64 n, n pairs}
  AppendU64(&subsets, 1);
  AppendU64(&subsets, 42);
  AppendU64(&subsets, 3);
  for (const float pre : {1.0f, 2.0f, 3.0f}) {
    AppendF32(&subsets, pre);
    AppendF32(&subsets, pre / 2);
  }

  std::string& tokens = sections[2].second;  // u64 tables, u64 tokens,
  sections[2].first = 3;                     // then {prefixed token, u64}
  AppendU64(&tokens, 1);
  AppendU64(&tokens, 1);
  AppendLengthPrefixed(&tokens, "london");
  AppendU64(&tokens, 1);

  sections[3].first = 4;  // pattern index: u64 columns, two empty maps
  for (int i = 0; i < 3; ++i) AppendU64(&sections[3].second, 0);

  std::string out(kSnapshotMagic);
  AppendU32(&out, 1);  // format_version
  AppendU32(&out, static_cast<uint32_t>(sections.size()));
  uint64_t offset = snapshot_internal::kHeaderBytes +
                    sections.size() * snapshot_internal::kTableEntryBytes;
  for (const auto& [id, payload] : sections) {
    AppendU32(&out, id);
    AppendU32(&out, Crc32(payload));
    AppendU64(&out, offset);
    AppendU64(&out, payload.size());
    offset += payload.size();
  }
  for (const auto& section : sections) out += section.second;
  return out;
}

}  // namespace unidetect

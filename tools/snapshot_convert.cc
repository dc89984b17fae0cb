// snapshot_convert: re-encodes a UDSNAP v2 model artifact and audits
// delta chains.
//
//   $ snapshot_convert <model_in> [--f16|--f32] [--out <path>] [--check]
//   $ snapshot_convert <compacted> --check --chain <base> [<delta>...]
//
// Reads a v2 snapshot with full validation, re-encodes it, and writes
// the result. `--f16` quantizes the observation/tree payloads to
// binary16 (halving the bulk bytes); `--f32` dequantizes an f16
// snapshot back to full precision; neither flag preserves the input's
// storage width. Without `--out` the artifact is rewritten in place —
// via a temp file + rename so a crash mid-write never leaves a torn
// snapshot behind. `--check` re-decodes the written bytes and verifies
// that encode(decode(bytes)) reproduces them exactly (the canonical-
// packing guarantee DESIGN.md section 12 promises). Exit status: 0 on
// success, 1 on a typed error (unreadable, corrupt or retired-v1 input;
// a failed check), 2 on a usage error.
//
// `--chain` switches to audit-only mode (nothing is written): the
// remaining arguments name a base snapshot and its delta artifacts in
// chain order. Each delta's manifest is verified against the artifacts
// actually on disk (base id, parent id, ascending depth), the layers
// are folded with Model::Merge, and the fold's canonical v2 encoding is
// byte-compared against <model_in> — the compacted artifact. Exit 0
// means the compaction faithfully folded exactly those layers.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "learn/model.h"
#include "model_format/delta_snapshot.h"
#include "model_format/model_snapshot.h"
#include "model_format/snapshot_v2.h"
#include "util/binary_io.h"
#include "util/logging.h"

using namespace unidetect;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: snapshot_convert <model_in> [--f16|--f32] "
               "[--out <path>] [--check]\n"
               "       snapshot_convert <compacted> --check --chain "
               "<base> [<delta>...]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "snapshot_convert: %s\n", status.ToString().c_str());
  return 1;
}

/// \brief Audit-only mode: verifies that `compacted_path` is exactly the
/// Model::Merge fold of `layers` (base first, deltas in chain order).
int AuditChain(const std::string& compacted_path,
               const std::vector<std::string>& layers) {
  // The manifests must chain the on-disk artifacts by content hash —
  // the same checks ApplyDelta runs before stacking a layer.
  auto base_identity = ReadSnapshotIdentity(layers[0]);
  if (!base_identity.ok()) return Fail(base_identity.status());
  if (base_identity->manifest.has_value()) {
    return Fail(Status::InvalidArgument(
        "chain audit: first layer " + layers[0] +
        " is a delta artifact; the chain must start at its base"));
  }
  uint64_t parent_id = base_identity->artifact_id;
  for (size_t i = 1; i < layers.size(); ++i) {
    auto identity = ReadSnapshotIdentity(layers[i]);
    if (!identity.ok()) return Fail(identity.status());
    if (!identity->manifest.has_value()) {
      return Fail(Status::InvalidArgument(
          "chain audit: " + layers[i] + " carries no delta manifest"));
    }
    const DeltaManifest& manifest = *identity->manifest;
    if (manifest.base_id != base_identity->artifact_id ||
        manifest.parent_id != parent_id || manifest.depth != i) {
      return Fail(Status::InvalidArgument(
          "chain audit: " + layers[i] +
          " does not chain onto the preceding layers (wrong base, "
          "parent, or depth)"));
    }
    parent_id = identity->artifact_id;
  }

  // Fold with full validation and byte-compare the canonical encoding
  // against the compacted artifact.
  auto base = LoadModelFromFile(layers[0], SnapshotValidation::kFull);
  if (!base.ok()) return Fail(base.status());
  Model merged(base->options());
  merged.Merge(*base);
  for (size_t i = 1; i < layers.size(); ++i) {
    auto delta = LoadModelFromFile(layers[i], SnapshotValidation::kFull);
    if (!delta.ok()) return Fail(delta.status());
    merged.Merge(*delta);
  }
  merged.Finalize();
  const std::string encoded = EncodeModelSnapshotV2(merged);
  auto compacted = ReadFileToString(compacted_path);
  if (!compacted.ok()) return Fail(compacted.status());
  if (encoded != *compacted) {
    return Fail(Status::Corruption(
        "chain audit: " + compacted_path +
        " is not bit-identical to the Model::Merge fold of the " +
        std::to_string(layers.size()) + " layer(s)"));
  }
  std::printf("%s == fold of %zu layer(s) (%zu bytes) [chain verified]\n",
              compacted_path.c_str(), layers.size(), encoded.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  if (argc < 2) return Usage();
  const std::string in_path = argv[1];
  std::string out_path = in_path;
  bool check = false;
  std::vector<std::string> chain;
  ObservationEncoding encoding = ObservationEncoding::kPreserve;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chain") == 0) {
      // Everything after --chain is a layer path, base first.
      for (++i; i < argc; ++i) chain.push_back(argv[i]);
      break;
    }
    if (std::strcmp(argv[i], "--f16") == 0) {
      encoding = ObservationEncoding::kF16;
    } else if (std::strcmp(argv[i], "--f32") == 0) {
      encoding = ObservationEncoding::kF32;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      return Usage();
    }
  }
  if (!chain.empty()) return AuditChain(in_path, chain);

  // Full validation on the way in: a conversion must never launder a
  // corrupt artifact into a fresh checksum.
  auto model = LoadModelFromFile(in_path, SnapshotValidation::kFull);
  if (!model.ok()) return Fail(model.status());

  const std::string encoded = EncodeModelSnapshotV2(*model, encoding);

  if (check) {
    auto redecoded = DecodeModelSnapshot(encoded, SnapshotValidation::kFull);
    if (!redecoded.ok()) return Fail(redecoded.status());
    // kPreserve re-encodes the decoded model in whatever width the file
    // carries, so this round trip is exact for f16 and f32 outputs alike.
    if (EncodeModelSnapshotV2(*redecoded, ObservationEncoding::kPreserve) !=
        encoded) {
      return Fail(Status::Corruption(
          "snapshot_convert: re-encode is not bit-identical"));
    }
  }

  // Write-then-rename keeps the in-place rewrite atomic: readers see
  // either the old artifact or the complete new one, never a prefix.
  const std::string tmp_path = out_path + ".tmp";
  Status status = WriteStringToFile(tmp_path, encoded);
  if (status.ok() && std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
    status = Status::IOError("snapshot_convert: rename to " + out_path +
                             " failed");
  }
  if (!status.ok()) return Fail(status);

  std::printf("%s -> %s (%zu bytes, UDSNAP v%u)%s\n", in_path.c_str(),
              out_path.c_str(), encoded.size(), kSnapshotVersion,
              check ? " [checked]" : "");
  return 0;
}

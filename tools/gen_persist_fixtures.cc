// Writes the tiny cross-version IVF and HNSW fixture files that
// tests/persist/persist_fixture_test.cc loads from tests/persist/testdata/.
//
// The fixtures are checked into git so that CI catches on-disk format
// breaks: if a loader change stops understanding yesterday's bytes, the
// fixture test fails in CI instead of at load time in production. Re-run
// this tool ONLY when introducing a new on-disk version (add a new fixture,
// never rewrite the old ones — superseded writers are replicated by hand
// below so the old bytes stay frozen):
//
//   ./build/gen_persist_fixtures tests/persist/testdata
//
// The IVF content is fully hand-specified (no k-means, no RNG), so the
// generator is deterministic across hosts and library changes; the test
// hard-codes the same constants. The HNSW graph is built from hand-specified
// small-integer points (every squared distance is exact in float) with a
// fixed level seed, so its adjacency is deterministic too; the test
// hard-codes the resulting graph.
#include <cstdio>
#include <string>
#include <vector>

#include "index/hnsw_index.h"
#include "index/ivf_index.h"
#include "linalg/matrix.h"
#include "persist/persist.h"
#include "quant/code_store.h"
#include "util/binary_io.h"

namespace resinfer {
namespace {

constexpr char kIvfMagic[8] = {'R', 'I', 'I', 'V', 'F', 'I', 'X', '1'};

// The record bytes as a count-prefixed vector, as the pre-v6 code sections
// stored them.
std::vector<uint8_t> CodeBytes(const quant::CodeStore& codes) {
  return std::vector<uint8_t>(codes.data(),
                              codes.data() + codes.data_bytes());
}

// The fixture index: 12 points in 4-d, 3 buckets. Keep in sync with
// persist_fixture_test.cc.
constexpr int64_t kSize = 12;
constexpr int64_t kDim = 4;
constexpr int kClusters = 3;

linalg::Matrix FixtureCentroids() {
  linalg::Matrix centroids(kClusters, kDim);
  for (int64_t c = 0; c < kClusters; ++c) {
    for (int64_t j = 0; j < kDim; ++j) {
      centroids.At(c, j) = static_cast<float>(c) + 0.25f * static_cast<float>(j);
    }
  }
  return centroids;
}

const std::vector<int64_t>& FixtureOffsets() {
  static const std::vector<int64_t> offsets = {0, 4, 9, 12};
  return offsets;
}

const std::vector<int64_t>& FixtureIds() {
  static const std::vector<int64_t> ids = {0, 3, 6, 9,  1, 4,
                                           7, 10, 11, 2, 5, 8};
  return ids;
}

// Id-indexed store: point i's code bytes are {i, 2i}, its sidecar i + 0.5.
quant::CodeStore FixtureCodes() {
  quant::CodeStore store(kSize, /*code_size=*/2, /*num_sidecars=*/1,
                         "fixture/cs2/sc1/n12");
  for (int64_t i = 0; i < kSize; ++i) {
    const uint8_t code[2] = {static_cast<uint8_t>(i),
                             static_cast<uint8_t>(2 * i)};
    store.SetCode(i, code);
    store.SetSidecar(i, 0, static_cast<float>(i) + 0.5f);
  }
  return store;
}

// Packed 4-bit store (the v4 fixture): point i carries three nibble codes
// {i, 2i, 3i} (mod 16) packed into two bytes (pad nibble zero), sidecar
// i + 0.25.
quant::CodeStore FixturePackedCodes() {
  quant::CodeStore store(kSize, /*code_size=*/2, /*num_sidecars=*/1,
                         "fixture/cs2/sc1/n12/pk4",
                         quant::CodePacking::kPacked4);
  for (int64_t i = 0; i < kSize; ++i) {
    const uint8_t nibbles[3] = {static_cast<uint8_t>(i & 0xf),
                                static_cast<uint8_t>((2 * i) & 0xf),
                                static_cast<uint8_t>((3 * i) & 0xf)};
    uint8_t code[2];
    quant::PackCodes4(nibbles, 3, code);
    store.SetCode(i, code);
    store.SetSidecar(i, 0, static_cast<float>(i) + 0.25f);
  }
  return store;
}

void WriteCommonPrefix(BinaryWriter& writer, uint32_t version,
                       const linalg::Matrix& centroids) {
  WriteHeader(writer, kIvfMagic, version);
  writer.Write<int64_t>(kSize);
  writer.Write(centroids.rows());
  writer.Write(centroids.cols());
  writer.WriteFloats(centroids.data(), centroids.size());
  writer.Write<int32_t>(kClusters);
}

bool WriteV1(const std::string& path, const linalg::Matrix& centroids) {
  BinaryWriter writer(path);
  WriteCommonPrefix(writer, 1, centroids);
  const auto& offsets = FixtureOffsets();
  const auto& ids = FixtureIds();
  for (int b = 0; b < kClusters; ++b) {
    std::vector<int64_t> bucket(ids.begin() + offsets[b],
                                ids.begin() + offsets[b + 1]);
    writer.WriteVector(bucket);
  }
  return writer.Close();
}

bool WriteV2(const std::string& path, const linalg::Matrix& centroids) {
  BinaryWriter writer(path);
  WriteCommonPrefix(writer, 2, centroids);
  writer.WriteVector(FixtureOffsets());
  writer.WriteVector(FixtureIds());
  return writer.Close();
}

bool WriteV3(const std::string& path, const linalg::Matrix& centroids) {
  // The v3 bytes are FROZEN (the library now writes v4): replicate the v3
  // layout by hand — code section without the packing byte.
  const quant::CodeStore codes = FixtureCodes().PermutedBy(FixtureIds());
  BinaryWriter writer(path);
  WriteCommonPrefix(writer, 3, centroids);
  writer.WriteVector(FixtureOffsets());
  writer.WriteVector(FixtureIds());
  writer.Write<uint8_t>(1);
  writer.Write<int64_t>(codes.code_size());
  writer.Write<int32_t>(codes.num_sidecars());
  writer.WriteString(codes.tag());
  writer.WriteVector(CodeBytes(codes));
  return writer.Close();
}

bool WriteV4(const std::string& path, const linalg::Matrix& centroids) {
  // The v4 bytes are FROZEN (the library now writes the checksummed v5):
  // replicate the v4 layout by hand — v3 plus the packing byte, no section
  // envelope, no footer.
  const quant::CodeStore codes = FixturePackedCodes().PermutedBy(FixtureIds());
  BinaryWriter writer(path);
  WriteCommonPrefix(writer, 4, centroids);
  writer.WriteVector(FixtureOffsets());
  writer.WriteVector(FixtureIds());
  writer.Write<uint8_t>(1);
  writer.Write<int64_t>(codes.code_size());
  writer.Write<int32_t>(codes.num_sidecars());
  writer.Write<uint8_t>(static_cast<uint8_t>(codes.packing()));
  writer.WriteString(codes.tag());
  writer.WriteVector(CodeBytes(codes));
  return writer.Close();
}

// The v5 bytes are FROZEN (the library now writes the storage-aligned v6):
// replicate the v5 layout by hand — the checksummed envelope around the v4
// payload, code records as a count-prefixed vector, no alignment pad.
bool WriteV5(const std::string& path, quant::CodeStore source) {
  const quant::CodeStore codes = source.PermutedBy(FixtureIds());
  const linalg::Matrix centroids = FixtureCentroids();
  BinaryWriter writer(path);
  WriteHeader(writer, kIvfMagic, 5);
  writer.BeginSection("meta");
  writer.Write<int64_t>(kSize);
  writer.EndSection();
  writer.BeginSection("centroids");
  writer.Write(centroids.rows());
  writer.Write(centroids.cols());
  writer.WriteFloats(centroids.data(), centroids.size());
  writer.EndSection();
  writer.BeginSection("buckets");
  writer.Write<int32_t>(kClusters);
  writer.WriteVector(FixtureOffsets());
  writer.WriteVector(FixtureIds());
  writer.EndSection();
  writer.BeginSection("codes");
  writer.Write<uint8_t>(1);
  writer.Write<int64_t>(codes.code_size());
  writer.Write<int32_t>(codes.num_sidecars());
  writer.Write<uint8_t>(static_cast<uint8_t>(codes.packing()));
  writer.WriteString(codes.tag());
  writer.WriteVector(CodeBytes(codes));
  writer.EndSection();
  writer.WriteChecksumFooter();
  return writer.Close();
}

// The current writer IS the v6 format; route through SaveIvf so the
// fixtures track exactly what the library writes today. One fixture per
// code layout so both ADC paths keep a cross-version guarantee.
bool WriteV6(const std::string& path, quant::CodeStore codes) {
  index::IvfIndex ivf = index::IvfIndex::FromCsr(
      kSize, FixtureCentroids(), FixtureOffsets(), FixtureIds());
  ivf.AttachCodes(std::move(codes));
  util::Status status = persist::SaveIvf(path, ivf);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }
  return true;
}

// The HNSW fixture: 12 small-integer points in 4-d, M = 2 so the graph has
// upper layers to pin, fixed level seed. Keep in sync with
// persist_fixture_test.cc.
linalg::Matrix HnswFixturePoints() {
  linalg::Matrix points(kSize, kDim);
  for (int64_t i = 0; i < kSize; ++i) {
    points.At(i, 0) = static_cast<float>(i);
    points.At(i, 1) = static_cast<float>((i * i) % 7);
    points.At(i, 2) = static_cast<float>((3 * i) % 5);
    points.At(i, 3) = static_cast<float>((5 * i) % 11);
  }
  return points;
}

// The graph file is written by the library's own SaveHnsw: its bytes pin
// the int64 on-disk graph layout (counts and ids widened to 64 bits).
bool WriteHnswV1(const std::string& path) {
  index::HnswOptions options;
  options.M = 2;
  options.ef_construction = 8;
  options.level_seed = 11;
  const index::HnswIndex graph =
      index::HnswIndex::Build(HnswFixturePoints(), options);
  util::Status status = persist::SaveHnsw(path, graph);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace
}  // namespace resinfer

int main(int argc, char** argv) {
  static const char kUsage[] =
      "usage: gen_persist_fixtures [OUT_DIR]\n"
      "Writes the persist fixture files into OUT_DIR (default\n"
      "tests/persist/testdata), which must exist.\n";
  const std::string arg = argc > 1 ? argv[1] : "";
  if (argc == 2 && (arg == "-h" || arg == "--help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (argc > 2 || (argc == 2 && (arg.empty() || arg[0] == '-'))) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string dir = argc > 1 ? arg : "tests/persist/testdata";
  const resinfer::linalg::Matrix centroids = resinfer::FixtureCentroids();
  if (!resinfer::WriteV1(dir + "/ivf_v1.bin", centroids) ||
      !resinfer::WriteV2(dir + "/ivf_v2.bin", centroids) ||
      !resinfer::WriteV3(dir + "/ivf_v3.bin", centroids) ||
      !resinfer::WriteV4(dir + "/ivf_v4.bin", centroids) ||
      !resinfer::WriteV5(dir + "/ivf_v5.bin", resinfer::FixtureCodes()) ||
      !resinfer::WriteV5(dir + "/ivf_v5_packed.bin",
                         resinfer::FixturePackedCodes()) ||
      !resinfer::WriteV6(dir + "/ivf_v6.bin", resinfer::FixtureCodes()) ||
      !resinfer::WriteV6(dir + "/ivf_v6_packed.bin",
                         resinfer::FixturePackedCodes()) ||
      !resinfer::WriteHnswV1(dir + "/hnsw_v1.bin")) {
    std::fprintf(stderr, "failed writing fixtures to %s\n", dir.c_str());
    return 1;
  }
  std::printf(
      "wrote ivf_v1.bin ivf_v2.bin ivf_v3.bin ivf_v4.bin ivf_v5.bin "
      "ivf_v5_packed.bin ivf_v6.bin ivf_v6_packed.bin hnsw_v1.bin to %s\n",
      dir.c_str());
  return 0;
}

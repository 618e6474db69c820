#include "persist/persist.h"

#include <atomic>
#include <cstdio>
#include <functional>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "simd/kernels.h"
#include "util/binary_io.h"

namespace resinfer::persist {

using util::Status;

namespace {

constexpr uint32_t kVersion = 1;
// Quantizer/artifact format v2 records the code layout (bits + packing,
// quant/code_layout.h) so packed 4-bit codes round-trip; v1 files predate
// nbits-honest code sizes and load as the byte-per-code layout they were
// written with.
constexpr uint32_t kVersionCodeLayout = 2;
// Checksummed revisions (docs/persistence.md): the payload is wrapped in
// the v5-style section envelope (per-section CRC32C + footer digest) and
// written atomically. kVersionChecksum succeeds kVersion-era formats,
// kVersionLayoutChecksum the kVersionCodeLayout-era ones; the payload
// layout inside the sections is unchanged from the previous revision.
constexpr uint32_t kVersionChecksum = 2;
constexpr uint32_t kVersionLayoutChecksum = 3;
// Matrix v3 aligns the float payload to a 64-byte file offset (an explicit
// [u32 pad_len][zeros] between the shape and the floats), so a mapped file
// serves rows in place — the raw-vector cold tier. v1/v2 matrix files
// still load (heap path only).
constexpr uint32_t kMatrixVersionAligned = 3;
// IVF v2 switched bucket storage to the CSR layout (offsets + flat ids);
// v1 nested-bucket files still load.
constexpr uint32_t kIvfVersionCsr = 2;
// IVF v3 appends an optional code-resident section: the bucket-permuted
// quant::CodeStore (tag + layout + raw records). v1/v2 files still load —
// they simply come back without attached codes.
constexpr uint32_t kIvfVersionCodes = 3;
// IVF v4 adds the code section's packing byte (packed 4-bit vs
// byte-per-code records). v3 sections load as byte-per-code.
constexpr uint32_t kIvfVersionPacked = 4;
// IVF v5 wraps the payload in the checksummed envelope.
constexpr uint32_t kIvfVersionChecksum = 5;
// IVF v6 restructures the code section for storage backends: the record
// payload carries an explicit byte count and an alignment pad that lands
// the first record on a 64-byte file offset, so an mmap'd file serves the
// records zero-copy at the same alignment the heap allocator guarantees.
constexpr uint32_t kIvfVersionStorage = 6;
constexpr char kMatrixMagic[8] = {'R', 'I', 'M', 'A', 'T', 'R', 'X', '1'};
constexpr char kPcaMagic[8] = {'R', 'I', 'P', 'C', 'A', 'M', 'D', '1'};
constexpr char kPqMagic[8] = {'R', 'I', 'P', 'Q', 'C', 'B', 'K', '1'};
constexpr char kOpqMagic[8] = {'R', 'I', 'O', 'P', 'Q', 'M', 'D', '1'};
constexpr char kHnswMagic[8] = {'R', 'I', 'H', 'N', 'S', 'W', 'G', '1'};
constexpr char kIvfMagic[8] = {'R', 'I', 'I', 'V', 'F', 'I', 'X', '1'};
constexpr char kDdcPcaMagic[8] = {'R', 'I', 'D', 'P', 'C', 'A', 'A', '1'};
constexpr char kDdcOpqMagic[8] = {'R', 'I', 'D', 'O', 'P', 'Q', 'A', '1'};
constexpr char kRqMagic[8] = {'R', 'I', 'R', 'Q', 'C', 'B', 'K', '1'};
constexpr char kSqMagic[8] = {'R', 'I', 'S', 'Q', 'C', 'B', 'K', '1'};
constexpr char kCorrectorMagic[8] = {'R', 'I', 'L', 'I', 'N', 'C', 'R', '1'};
constexpr char kDdcRqCascadeMagic[8] = {'R', 'I', 'D', 'R', 'Q', 'C', 'A', '1'};

// Injected write budget for the ENOSPC fault tests; -1 = unlimited.
std::atomic<int64_t> g_write_limit{-1};

// Appends the reader's own diagnosis ("unexpected end of file", "section
// 'codes': checksum mismatch", ...) to the loader's context so the Status
// message says both what the loader was doing and why the bytes failed.
Status Corrupt(const BinaryReader& reader, const std::string& path,
               const std::string& what) {
  std::string msg = path + ": " + what;
  if (!reader.fail_reason().empty()) msg += " (" + reader.fail_reason() + ")";
  return Status::Corruption(msg);
}

Status OpenForRead(const BinaryReader& reader, const std::string& path) {
  if (!reader.ok())
    return Status::NotFound(path + ": cannot open for reading");
  return Status::Ok();
}

// Reads a magic/version header whose version may be any of
// [1, max_version] and flips the reader into checksummed mode for
// versions >= checksum_version — the hand-versioned counterpart of
// ExpectHeader for formats with older revisions still on disk.
Status ReadVersionedHeader(BinaryReader& reader, const std::string& path,
                           const char* what, const char magic[8],
                           uint32_t max_version, uint32_t checksum_version,
                           uint32_t* version) {
  char got[8] = {};
  reader.ReadBytes(got, 8);
  if (!reader.Read(version))
    return Corrupt(reader, path,
                   std::string("truncated ") + what + " header");
  if (std::memcmp(got, magic, 8) != 0)
    return Status::InvalidArgument(path + ": not a " + what +
                                   " file (magic mismatch)");
  if (*version < 1 || *version > max_version)
    return Status::Corruption(
        path + ": " + what + " version " + std::to_string(*version) +
        " is outside this build's supported range [1, " +
        std::to_string(max_version) + "]");
  reader.set_checksummed(*version >= checksum_version);
  return Status::Ok();
}

void WriteCodeLayout(BinaryWriter& writer, const quant::CodeLayout& layout) {
  writer.Write<int32_t>(layout.bits);
  writer.Write<uint8_t>(static_cast<uint8_t>(layout.packing));
}

bool ReadCodeLayout(BinaryReader& reader, quant::CodeLayout* out) {
  int32_t bits = 0;
  uint8_t packing = 0;
  if (!reader.Read(&bits) || !reader.Read(&packing)) return false;
  if (bits < 1 || bits > 8 || packing > 1) return false;
  if (packing == static_cast<uint8_t>(quant::CodePacking::kPacked4) &&
      bits > 4) {
    return false;
  }
  out->bits = bits;
  out->packing = static_cast<quant::CodePacking>(packing);
  return true;
}

void WriteMatrixPayload(BinaryWriter& writer, const linalg::Matrix& m) {
  writer.Write(m.rows());
  writer.Write(m.cols());
  writer.WriteFloats(m.data(), m.size());
}

// A matrix shape read from the file is plausible only if its floats can
// still follow in the file (or section). Division-form bound check first:
// rows * cols would overflow on hostile headers before a product-form
// comparison could reject them.
bool MatrixShapeFits(BinaryReader& reader, int64_t rows, int64_t cols) {
  if (rows < 0 || cols < 0 ||
      (cols > 0 && rows > reader.max_elements() / cols)) {
    return false;
  }
  return reader.CheckCount(rows * cols, sizeof(float));
}

bool ReadMatrixPayload(BinaryReader& reader, linalg::Matrix* out) {
  int64_t rows = 0, cols = 0;
  if (!reader.Read(&rows) || !reader.Read(&cols)) return false;
  if (!MatrixShapeFits(reader, rows, cols)) return false;
  *out = linalg::Matrix(rows, cols);
  return reader.ReadFloats(out->data(), out->size());
}

void WriteCorrectorPayload(BinaryWriter& writer,
                           const core::LinearCorrector& corrector) {
  writer.Write(corrector.w_approx());
  writer.Write(corrector.w_tau());
  writer.Write(corrector.w_extra());
  writer.Write(corrector.bias());
  writer.Write<uint8_t>(corrector.trained() ? 1 : 0);
}

bool ReadCorrectorPayload(BinaryReader& reader,
                          core::LinearCorrector* out) {
  float w_approx = 0, w_tau = 0, w_extra = 0, bias = 0;
  uint8_t trained = 0;
  if (!reader.Read(&w_approx) || !reader.Read(&w_tau) ||
      !reader.Read(&w_extra) || !reader.Read(&bias) ||
      !reader.Read(&trained)) {
    return false;
  }
  *out = core::LinearCorrector::FromWeights(w_approx, w_tau, w_extra, bias,
                                            trained != 0);
  return true;
}

// Atomic save protocol: the payload lands in `path + ".tmp.<pid>"` (same
// directory, so the rename cannot cross filesystems), is flushed and
// fsync'd, and only then renamed over the destination. A failure at any
// point deletes the temp file and leaves whatever `path` held before —
// including nothing — untouched, so a crash or full disk mid-save can
// never replace a good index with a half-written one.
Status AtomicSave(const std::string& path,
                  const std::function<void(BinaryWriter&)>& write_payload) {
  const std::string tmp =
#if !defined(_WIN32)
      path + ".tmp." + std::to_string(::getpid());
#else
      path + ".tmp";
#endif
  BinaryWriter writer(tmp);
  if (!writer.ok())
    return Status::IOError(tmp + ": cannot open for writing");
  const int64_t limit = g_write_limit.load(std::memory_order_relaxed);
  if (limit >= 0) writer.set_write_limit_for_testing(limit);
  write_payload(writer);
  writer.WriteChecksumFooter();
  bool okay = writer.ok() && writer.SyncToDisk();
  okay = writer.Close() && okay;
  if (!okay) {
    std::string reason = writer.fail_reason().empty()
                             ? "write failed"
                             : writer.fail_reason();
    std::remove(tmp.c_str());
    return Status::IOError(path + ": save failed (" + reason +
                           "); existing file left untouched");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError(path +
                           ": rename from temp file failed; existing file "
                           "left untouched");
  }
  return Status::Ok();
}

}  // namespace

void SetWriteFailureForTesting(int64_t bytes) {
  g_write_limit.store(bytes, std::memory_order_relaxed);
}

Status SaveMatrix(const std::string& path, const linalg::Matrix& m) {
  return AtomicSave(path, [&](BinaryWriter& writer) {
    WriteHeader(writer, kMatrixMagic, kMatrixVersionAligned);
    writer.BeginSection("matrix");
    writer.Write(m.rows());
    writer.Write(m.cols());
    writer.WriteAlignmentPad(kCacheLineBytes);
    writer.WriteFloats(m.data(), m.size());
    writer.EndSection();
  });
}

namespace {

// Shape + (v3) alignment pad of the standalone matrix format, leaving the
// reader positioned at the float payload. Bounds-checks the shape like
// ReadMatrixPayload.
Status ReadMatrixPrefix(BinaryReader& reader, const std::string& path,
                        uint32_t version, int64_t* rows, int64_t* cols) {
  if (!reader.BeginSection("matrix") || !reader.Read(rows) ||
      !reader.Read(cols)) {
    return Corrupt(reader, path, "bad matrix payload");
  }
  if (!MatrixShapeFits(reader, *rows, *cols))
    return Status::Corruption(path + ": implausible matrix shape");
  if (version >= kMatrixVersionAligned &&
      !reader.ReadAlignmentPad(kCacheLineBytes)) {
    return Corrupt(reader, path, "bad matrix alignment pad");
  }
  return Status::Ok();
}

}  // namespace

Status LoadMatrix(const std::string& path, linalg::Matrix* out) {
  BinaryReader reader(path);
  RESINFER_RETURN_IF_ERROR(OpenForRead(reader, path));
  uint32_t version = 0;
  RESINFER_RETURN_IF_ERROR(ReadVersionedHeader(
      reader, path, "matrix", kMatrixMagic, kMatrixVersionAligned,
      kVersionChecksum, &version));
  int64_t rows = 0, cols = 0;
  RESINFER_RETURN_IF_ERROR(ReadMatrixPrefix(reader, path, version, &rows,
                                            &cols));
  *out = linalg::Matrix(rows, cols);
  if (!reader.ReadFloats(out->data(), out->size()) || !reader.EndSection()) {
    return Corrupt(reader, path, "bad matrix payload");
  }
  if (!reader.ExpectChecksumFooter())
    return Corrupt(reader, path, "bad matrix footer");
  return Status::Ok();
}

Status LoadMatrixMapped(const std::string& path, MappedMatrix* out,
                        storage::StorageBackend backend) {
  MappedMatrix result;
  result.backend = storage::StorageBackend::kMemory;
  if (backend == storage::StorageBackend::kMmap) {
    BinaryReader reader(path);
    RESINFER_RETURN_IF_ERROR(OpenForRead(reader, path));
    uint32_t version = 0;
    RESINFER_RETURN_IF_ERROR(ReadVersionedHeader(
        reader, path, "matrix", kMatrixMagic, kMatrixVersionAligned,
        kVersionChecksum, &version));
    if (version >= kMatrixVersionAligned) {
      int64_t rows = 0, cols = 0;
      RESINFER_RETURN_IF_ERROR(ReadMatrixPrefix(reader, path, version, &rows,
                                                &cols));
      const int64_t floats_offset = reader.Tell();
      const int64_t float_bytes =
          rows * cols * static_cast<int64_t>(sizeof(float));
      if (floats_offset < 0 ||
          floats_offset % static_cast<int64_t>(kCacheLineBytes) != 0) {
        return Status::Corruption(path +
                                  ": matrix float payload is not 64-byte "
                                  "aligned despite the v3 header");
      }
      if (!reader.SkipPayload(static_cast<uint64_t>(float_bytes)) ||
          !reader.EndSection() || !reader.ExpectChecksumFooter()) {
        return Corrupt(reader, path, "bad matrix payload");
      }
      storage::Blob mapping;
      RESINFER_RETURN_IF_ERROR(storage::MapFileReadOnly(path, &mapping));
      if (floats_offset + float_bytes > mapping.size()) {
        return Status::Corruption(path +
                                  ": matrix payload extends past the file");
      }
      result.pin = mapping.Slice(floats_offset, float_bytes);
      // Cold tier: rescore ids are scattered, so disable fault-around —
      // otherwise each touched row pages in a neighborhood and RSS creeps
      // toward the full file.
      storage::AdviseRandomAccess(result.pin);
      result.matrix = linalg::Matrix::View(
          reinterpret_cast<const float*>(result.pin.data()), rows, cols);
      result.backend = storage::StorageBackend::kMmap;
      *out = std::move(result);
      return Status::Ok();
    }
    // Pre-v3 files have no aligned payload to map; fall through to the
    // heap load below, reporting the memory backend.
  }
  RESINFER_RETURN_IF_ERROR(LoadMatrix(path, &result.matrix));
  *out = std::move(result);
  return Status::Ok();
}

Status SavePca(const std::string& path, const linalg::PcaModel& model) {
  return AtomicSave(path, [&](BinaryWriter& writer) {
    WriteHeader(writer, kPcaMagic, kVersionChecksum);
    writer.BeginSection("mean");
    writer.WriteVector(model.mean());
    writer.EndSection();
    writer.BeginSection("rotation");
    WriteMatrixPayload(writer, model.rotation());
    writer.EndSection();
    writer.BeginSection("variances");
    writer.WriteVector(model.variances());
    writer.EndSection();
  });
}

Status LoadPca(const std::string& path, linalg::PcaModel* out) {
  BinaryReader reader(path);
  RESINFER_RETURN_IF_ERROR(OpenForRead(reader, path));
  uint32_t version = 0;
  RESINFER_RETURN_IF_ERROR(ReadVersionedHeader(reader, path, "pca",
                                               kPcaMagic, kVersionChecksum,
                                               kVersionChecksum, &version));
  std::vector<float> mean, variances;
  linalg::Matrix rotation;
  if (!reader.BeginSection("mean") || !reader.ReadVector(&mean) ||
      !reader.EndSection() || !reader.BeginSection("rotation") ||
      !ReadMatrixPayload(reader, &rotation) || !reader.EndSection() ||
      !reader.BeginSection("variances") || !reader.ReadVector(&variances) ||
      !reader.EndSection()) {
    return Corrupt(reader, path, "bad pca payload");
  }
  if (!reader.ExpectChecksumFooter())
    return Corrupt(reader, path, "bad pca footer");
  if (rotation.rows() != rotation.cols() ||
      static_cast<int64_t>(mean.size()) != rotation.rows() ||
      static_cast<int64_t>(variances.size()) != rotation.rows()) {
    return Status::Corruption(path + ": inconsistent pca shapes");
  }
  *out = linalg::PcaModel::FromComponents(std::move(mean),
                                          std::move(rotation),
                                          std::move(variances));
  return Status::Ok();
}

namespace {

// PQ-style codebook payloads (PQ, OPQ's and DDC-OPQ's embedded codebook):
// subspace count + code layout in a "meta" section, the per-subspace
// centroid matrices in a "codebooks" section.
void WritePqPayload(BinaryWriter& writer, const quant::PqCodebook& pq) {
  writer.BeginSection("meta");
  writer.Write<int32_t>(pq.num_subspaces());
  WriteCodeLayout(writer, pq.layout());
  writer.EndSection();
  writer.BeginSection("codebooks");
  for (int s = 0; s < pq.num_subspaces(); ++s) {
    WriteMatrixPayload(writer, pq.centroids(s));
  }
  writer.EndSection();
}

// Reads the payload written by WritePqPayload — and its unchecksummed v1/v2
// ancestors (v1 has no code layout; the section calls no-op below the
// checksummed version). `what` names the format for error messages;
// `max_subspaces` keeps RQ's tighter stage bound.
Status ReadPqPayload(BinaryReader& reader, const std::string& path,
                     const char* what, uint32_t version,
                     uint32_t layout_version, int32_t max_subspaces,
                     quant::PqCodebook* out) {
  const std::string ctx = std::string(what);
  int32_t m = 0;
  if (!reader.BeginSection("meta") || !reader.Read(&m))
    return Corrupt(reader, path, "bad " + ctx + " meta");
  if (m <= 0 || m > max_subspaces)
    return Status::Corruption(path + ": bad " + ctx + " subspace count");
  quant::CodeLayout layout;  // v1 files are byte-per-code
  if (version >= layout_version && !ReadCodeLayout(reader, &layout))
    return Corrupt(reader, path, "bad " + ctx + " code layout");
  if (!reader.EndSection())
    return Corrupt(reader, path, "bad " + ctx + " meta");
  if (layout.packed() && m > 256)
    return Status::Corruption(path + ": packed layout requires m <= 256");
  std::vector<linalg::Matrix> codebooks;
  codebooks.reserve(m);
  if (!reader.BeginSection("codebooks"))
    return Corrupt(reader, path, "bad " + ctx + " codebooks");
  for (int32_t s = 0; s < m; ++s) {
    linalg::Matrix table;
    if (!ReadMatrixPayload(reader, &table))
      return Corrupt(reader, path, "truncated " + ctx + " codebooks");
    codebooks.push_back(std::move(table));
  }
  if (!reader.EndSection())
    return Corrupt(reader, path, "bad " + ctx + " codebooks");
  for (const auto& table : codebooks) {
    if (table.rows() != codebooks[0].rows() ||
        table.cols() != codebooks[0].cols() || table.rows() > 256 ||
        table.rows() <= 0) {
      return Status::Corruption(path + ": inconsistent " + ctx +
                                " codebook shapes");
    }
  }
  if (codebooks[0].rows() > (int64_t{1} << layout.bits))
    return Status::Corruption(path + ": " + ctx +
                              " codebook larger than layout bits");
  *out = quant::PqCodebook::FromCodebooks(std::move(codebooks), layout);
  return Status::Ok();
}

}  // namespace

Status SavePq(const std::string& path, const quant::PqCodebook& pq) {
  return AtomicSave(path, [&](BinaryWriter& writer) {
    WriteHeader(writer, kPqMagic, kVersionLayoutChecksum);
    WritePqPayload(writer, pq);
  });
}

Status LoadPq(const std::string& path, quant::PqCodebook* out) {
  BinaryReader reader(path);
  RESINFER_RETURN_IF_ERROR(OpenForRead(reader, path));
  uint32_t version = 0;
  RESINFER_RETURN_IF_ERROR(
      ReadVersionedHeader(reader, path, "pq", kPqMagic, kVersionLayoutChecksum,
                          kVersionLayoutChecksum, &version));
  RESINFER_RETURN_IF_ERROR(ReadPqPayload(reader, path, "pq", version,
                                         kVersionCodeLayout, 4096, out));
  if (!reader.ExpectChecksumFooter())
    return Corrupt(reader, path, "bad pq footer");
  return Status::Ok();
}

Status SaveOpq(const std::string& path, const quant::OpqModel& model) {
  return AtomicSave(path, [&](BinaryWriter& writer) {
    WriteHeader(writer, kOpqMagic, kVersionLayoutChecksum);
    writer.BeginSection("rotation");
    WriteMatrixPayload(writer, model.rotation());
    writer.EndSection();
    WritePqPayload(writer, model.codebook());
  });
}

Status LoadOpq(const std::string& path, quant::OpqModel* out) {
  BinaryReader reader(path);
  RESINFER_RETURN_IF_ERROR(OpenForRead(reader, path));
  uint32_t version = 0;
  RESINFER_RETURN_IF_ERROR(ReadVersionedHeader(
      reader, path, "opq", kOpqMagic, kVersionLayoutChecksum,
      kVersionLayoutChecksum, &version));
  linalg::Matrix rotation;
  if (!reader.BeginSection("rotation") ||
      !ReadMatrixPayload(reader, &rotation) || !reader.EndSection()) {
    return Corrupt(reader, path, "bad opq rotation");
  }
  quant::PqCodebook pq;
  RESINFER_RETURN_IF_ERROR(ReadPqPayload(reader, path, "opq", version,
                                         kVersionCodeLayout, 4096, &pq));
  if (!reader.ExpectChecksumFooter())
    return Corrupt(reader, path, "bad opq footer");
  if (pq.dim() != rotation.rows() || rotation.rows() != rotation.cols())
    return Status::Corruption(path + ": opq rotation/codebook dim mismatch");
  *out = quant::OpqModel::FromComponents(std::move(rotation), std::move(pq));
  return Status::Ok();
}

Status SaveRq(const std::string& path, const quant::RqCodebook& rq) {
  return AtomicSave(path, [&](BinaryWriter& writer) {
    WriteHeader(writer, kRqMagic, kVersionLayoutChecksum);
    writer.BeginSection("meta");
    writer.Write<int32_t>(rq.num_stages());
    WriteCodeLayout(writer, rq.layout());
    writer.EndSection();
    writer.BeginSection("codebooks");
    for (int s = 0; s < rq.num_stages(); ++s) {
      WriteMatrixPayload(writer, rq.centroids(s));
    }
    writer.EndSection();
  });
}

Status LoadRq(const std::string& path, quant::RqCodebook* out) {
  BinaryReader reader(path);
  RESINFER_RETURN_IF_ERROR(OpenForRead(reader, path));
  uint32_t version = 0;
  RESINFER_RETURN_IF_ERROR(
      ReadVersionedHeader(reader, path, "rq", kRqMagic, kVersionLayoutChecksum,
                          kVersionLayoutChecksum, &version));
  quant::PqCodebook as_pq;
  RESINFER_RETURN_IF_ERROR(ReadPqPayload(reader, path, "rq", version,
                                         kVersionCodeLayout, 256, &as_pq));
  if (!reader.ExpectChecksumFooter())
    return Corrupt(reader, path, "bad rq footer");
  // RQ shares PQ's payload wire format (stage count + stagewise centroid
  // matrices); rebuild the RQ view from the parsed parts.
  std::vector<linalg::Matrix> codebooks;
  codebooks.reserve(as_pq.num_subspaces());
  for (int s = 0; s < as_pq.num_subspaces(); ++s) {
    codebooks.push_back(as_pq.centroids(s).Clone());
  }
  *out = quant::RqCodebook::FromCodebooks(std::move(codebooks),
                                          as_pq.layout());
  return Status::Ok();
}

Status SaveSq(const std::string& path, const quant::SqCodebook& sq) {
  return AtomicSave(path, [&](BinaryWriter& writer) {
    WriteHeader(writer, kSqMagic, kVersionChecksum);
    writer.BeginSection("vmin");
    writer.WriteVector(sq.vmin());
    writer.EndSection();
    writer.BeginSection("step");
    writer.WriteVector(sq.step());
    writer.EndSection();
  });
}

Status LoadSq(const std::string& path, quant::SqCodebook* out) {
  BinaryReader reader(path);
  RESINFER_RETURN_IF_ERROR(OpenForRead(reader, path));
  uint32_t version = 0;
  RESINFER_RETURN_IF_ERROR(ReadVersionedHeader(reader, path, "sq", kSqMagic,
                                               kVersionChecksum,
                                               kVersionChecksum, &version));
  std::vector<float> vmin, step;
  if (!reader.BeginSection("vmin") || !reader.ReadVector(&vmin) ||
      !reader.EndSection() || !reader.BeginSection("step") ||
      !reader.ReadVector(&step) || !reader.EndSection()) {
    return Corrupt(reader, path, "bad sq payload");
  }
  if (!reader.ExpectChecksumFooter())
    return Corrupt(reader, path, "bad sq footer");
  if (vmin.empty() || vmin.size() != step.size())
    return Status::Corruption(path + ": inconsistent sq ranges");
  for (float s : step) {
    if (!(s >= 0.0f))
      return Status::Corruption(path + ": negative sq step");
  }
  *out = quant::SqCodebook::FromParams(std::move(vmin), std::move(step));
  return Status::Ok();
}

Status SaveCorrector(const std::string& path,
                     const core::LinearCorrector& corrector) {
  return AtomicSave(path, [&](BinaryWriter& writer) {
    WriteHeader(writer, kCorrectorMagic, kVersionChecksum);
    writer.BeginSection("corrector");
    WriteCorrectorPayload(writer, corrector);
    writer.EndSection();
  });
}

Status LoadCorrector(const std::string& path, core::LinearCorrector* out) {
  BinaryReader reader(path);
  RESINFER_RETURN_IF_ERROR(OpenForRead(reader, path));
  uint32_t version = 0;
  RESINFER_RETURN_IF_ERROR(ReadVersionedHeader(
      reader, path, "corrector", kCorrectorMagic, kVersionChecksum,
      kVersionChecksum, &version));
  if (!reader.BeginSection("corrector") ||
      !ReadCorrectorPayload(reader, out) || !reader.EndSection()) {
    return Corrupt(reader, path, "bad corrector payload");
  }
  if (!reader.ExpectChecksumFooter())
    return Corrupt(reader, path, "bad corrector footer");
  return Status::Ok();
}

Status SaveHnsw(const std::string& path, const index::HnswIndex& hnsw) {
  return AtomicSave(path, [&](BinaryWriter& writer) {
    WriteHeader(writer, kHnswMagic, kVersionChecksum);
    writer.BeginSection("graph");
    hnsw.SaveTo(writer);
    writer.EndSection();
  });
}

Status LoadHnsw(const std::string& path, index::HnswIndex* out) {
  BinaryReader reader(path);
  RESINFER_RETURN_IF_ERROR(OpenForRead(reader, path));
  uint32_t version = 0;
  RESINFER_RETURN_IF_ERROR(ReadVersionedHeader(reader, path, "hnsw",
                                               kHnswMagic, kVersionChecksum,
                                               kVersionChecksum, &version));
  if (!reader.BeginSection("graph"))
    return Corrupt(reader, path, "bad hnsw payload");
  util::Status graph = index::HnswIndex::LoadFrom(reader, out);
  if (!graph.ok()) {
    if (!reader.fail_reason().empty())
      return Status::Corruption(path + ": " + graph.message() + " (" +
                                reader.fail_reason() + ")");
    return Status::Corruption(path + ": " + graph.message());
  }
  if (!reader.EndSection() || !reader.ExpectChecksumFooter())
    return Corrupt(reader, path, "bad hnsw footer");
  return Status::Ok();
}

Status SaveIvf(const std::string& path, const index::IvfIndex& ivf) {
  return AtomicSave(path, [&](BinaryWriter& writer) {
    WriteHeader(writer, kIvfMagic, kIvfVersionStorage);
    writer.BeginSection("meta");
    writer.Write(ivf.size());
    writer.EndSection();
    writer.BeginSection("centroids");
    WriteMatrixPayload(writer, ivf.centroids());
    writer.EndSection();
    writer.BeginSection("buckets");
    writer.Write<int32_t>(ivf.num_clusters());
    writer.WriteVector(ivf.bucket_offsets());
    writer.WriteVector(ivf.ids());
    writer.EndSection();
    // Code section (v3): the bucket-permuted store, saved record-for-record
    // so loads re-attach without re-permuting; v4 adds the packing byte.
    // v6 replaces the count-prefixed record vector with an explicit byte
    // count followed by an alignment pad, so the first record sits on a
    // 64-byte file offset and an mmap load can serve the records in place
    // at the alignment the heap allocator would have provided.
    writer.BeginSection("codes");
    writer.Write<uint8_t>(ivf.has_codes() ? 1 : 0);
    if (ivf.has_codes()) {
      const quant::CodeStore& codes = ivf.codes();
      writer.Write<int64_t>(codes.code_size());
      writer.Write<int32_t>(codes.num_sidecars());
      writer.Write<uint8_t>(static_cast<uint8_t>(codes.packing()));
      writer.WriteString(codes.tag());
      writer.Write<uint64_t>(static_cast<uint64_t>(codes.data_bytes()));
      writer.WriteAlignmentPad(kCacheLineBytes);
      writer.WriteBytes(codes.data(),
                        static_cast<std::size_t>(codes.data_bytes()));
    }
    writer.EndSection();
  });
}

Status LoadIvf(const std::string& path, index::IvfIndex* out) {
  return LoadIvf(path, out, IvfLoadOptions());
}

Status LoadIvf(const std::string& path, index::IvfIndex* out,
               const IvfLoadOptions& options) {
  BinaryReader reader(path);
  RESINFER_RETURN_IF_ERROR(OpenForRead(reader, path));
  // Versioned by hand: v6 restructures the code section for storage
  // backends, v5 adds the checksummed envelope, v4 the code section's
  // packing byte, v3 the code section itself, v2 the CSR layout; v1 is the
  // legacy nested buckets.
  uint32_t version = 0;
  RESINFER_RETURN_IF_ERROR(ReadVersionedHeader(
      reader, path, "ivf", kIvfMagic, kIvfVersionStorage,
      kIvfVersionChecksum, &version));
  int64_t size = 0;
  linalg::Matrix centroids;
  int32_t clusters = 0;
  if (!reader.BeginSection("meta") || !reader.Read(&size) ||
      !reader.EndSection() || !reader.BeginSection("centroids") ||
      !ReadMatrixPayload(reader, &centroids) || !reader.EndSection() ||
      !reader.BeginSection("buckets") || !reader.Read(&clusters)) {
    return Corrupt(reader, path, "truncated ivf payload");
  }
  if (size <= 0 || clusters <= 0 || clusters != centroids.rows())
    return Status::Corruption(path + ": inconsistent ivf shapes");

  std::vector<int64_t> offsets;
  std::vector<int64_t> ids;
  if (version >= kIvfVersionCsr) {
    if (!reader.ReadVector(&offsets) || !reader.ReadVector(&ids))
      return Corrupt(reader, path, "truncated ivf buckets");
  } else {
    offsets.reserve(clusters + 1);
    offsets.push_back(0);
    for (int32_t b = 0; b < clusters; ++b) {
      std::vector<int64_t> bucket;
      if (!reader.ReadVector(&bucket))
        return Corrupt(reader, path, "truncated ivf buckets");
      ids.insert(ids.end(), bucket.begin(), bucket.end());
      offsets.push_back(static_cast<int64_t>(ids.size()));
    }
  }
  if (!reader.EndSection())
    return Corrupt(reader, path, "bad ivf buckets");
  // Shared with FromCsr so a corrupt file fails here recoverably instead of
  // tripping the constructor's CHECK.
  util::Status csr = index::IvfIndex::ValidateCsr(size, clusters, offsets, ids);
  if (!csr.ok())
    return Status::Corruption(path + ": " + csr.message());
  if (static_cast<int64_t>(ids.size()) != size)
    return Status::Corruption(path + ": buckets do not partition the base");

  // Code section (v3 onward, optional; v4 adds the packing byte, v6 the
  // explicit byte count + alignment pad that makes the records mappable).
  quant::CodeStore codes;
  bool has_codes = false;
  // Deferred zero-copy attach: with the mmap backend the parse records
  // where the aligned payload sits, skips over it, finishes the envelope,
  // and only then maps the file — the mapping must cover the footer-
  // validated structure, not a file still mid-parse.
  bool map_codes = false;
  int64_t map_offset = 0;
  uint64_t map_bytes = 0;
  int64_t map_code_size = 0;
  int32_t map_num_sidecars = 0;
  uint8_t map_packing = 0;
  std::string map_tag;
  if (version >= kIvfVersionCodes) {
    uint8_t flag = 0;
    if (!reader.BeginSection("codes") || !reader.Read(&flag))
      return Corrupt(reader, path, "truncated ivf code flag");
    if (flag != 0) {
      int64_t code_size = 0;
      int32_t num_sidecars = 0;
      uint8_t packing = 0;  // v3 stores are byte-per-code
      std::string tag;
      if (!reader.Read(&code_size) || !reader.Read(&num_sidecars) ||
          (version >= kIvfVersionPacked && !reader.Read(&packing)) ||
          !reader.ReadString(&tag)) {
        return Corrupt(reader, path, "truncated ivf code section");
      }
      if (packing > 1)
        return Status::Corruption(path + ": bad ivf code packing");
      // The packing byte and the tag's layout marker must agree, or a
      // packed store could tag-match a byte-per-code computer (or vice
      // versa) and be misindexed at scan time with no error anywhere —
      // the confusion the explicit layout exists to rule out.
      const bool tag_packed =
          tag.size() >= 4 && tag.compare(tag.size() - 4, 4, "/pk4") == 0;
      if (tag_packed !=
          (packing == static_cast<uint8_t>(quant::CodePacking::kPacked4))) {
        return Status::Corruption(
            path + ": ivf code packing disagrees with store tag");
      }
      std::vector<uint8_t> data;
      if (version >= kIvfVersionStorage) {
        uint64_t record_bytes = 0;
        if (!reader.Read(&record_bytes) ||
            !reader.ReadAlignmentPad(kCacheLineBytes)) {
          return Corrupt(reader, path, "truncated ivf code section");
        }
        if (record_bytes > static_cast<uint64_t>(reader.max_elements()) ||
            record_bytes > reader.BytesRemaining()) {
          return Status::Corruption(path + ": ivf code payload out of range");
        }
        if (options.backend == storage::StorageBackend::kMmap) {
          map_offset = reader.Tell();
          if (map_offset < 0 ||
              map_offset % static_cast<int64_t>(kCacheLineBytes) != 0) {
            return Status::Corruption(
                path +
                ": ivf code records are not 64-byte aligned despite the v6 "
                "header");
          }
          if (!reader.SkipPayload(record_bytes))
            return Corrupt(reader, path, "truncated ivf code section");
          map_bytes = record_bytes;
          map_code_size = code_size;
          map_num_sidecars = num_sidecars;
          map_packing = packing;
          map_tag = std::move(tag);
          map_codes = true;
        } else {
          data.resize(static_cast<std::size_t>(record_bytes));
          if (record_bytes > 0) {
            reader.ReadBytes(data.data(),
                             static_cast<std::size_t>(record_bytes));
          }
          if (!reader.ok())
            return Corrupt(reader, path, "truncated ivf code section");
        }
      } else if (!reader.ReadVector(&data)) {
        // v3–v5 record payloads are a count-prefixed vector; they always
        // deserialize onto the heap (no alignment guarantee to map), so a
        // requested mmap backend silently falls back to memory here.
        return Corrupt(reader, path, "truncated ivf code section");
      }
      if (!map_codes) {
        // FromParts rejects truncated or oversized payloads (the data must
        // be exactly one record per indexed point).
        util::Status parts = quant::CodeStore::FromParts(
            size, code_size, num_sidecars, std::move(tag), std::move(data),
            &codes, static_cast<quant::CodePacking>(packing));
        if (!parts.ok())
          return Status::Corruption(path + ": ivf code section: " +
                                    parts.message());
        has_codes = true;
      }
    }
    if (!reader.EndSection())
      return Corrupt(reader, path, "bad ivf code section");
  }
  if (!reader.ExpectChecksumFooter())
    return Corrupt(reader, path, "bad ivf footer");

  if (map_codes) {
    storage::Blob mapping;
    RESINFER_RETURN_IF_ERROR(storage::MapFileReadOnly(path, &mapping));
    if (map_bytes > static_cast<uint64_t>(mapping.size()) ||
        map_offset > mapping.size() - static_cast<int64_t>(map_bytes)) {
      return Status::Corruption(path +
                                ": ivf code payload extends past the file");
    }
    util::Status blob = quant::CodeStore::FromBlob(
        size, map_code_size, map_num_sidecars, std::move(map_tag),
        mapping.Slice(map_offset, static_cast<int64_t>(map_bytes)), &codes,
        static_cast<quant::CodePacking>(map_packing),
        storage::StorageBackend::kMmap);
    if (!blob.ok())
      return Status::Corruption(path + ": ivf code section: " +
                                blob.message());
    has_codes = true;
  }

  *out = index::IvfIndex::FromCsr(size, std::move(centroids),
                                  std::move(offsets), std::move(ids));
  if (has_codes) out->AttachPermutedCodes(std::move(codes));
  return Status::Ok();
}

util::StatusOr<index::IvfIndex> LoadIvfIndex(const std::string& path,
                                             const IvfLoadOptions& options) {
  index::IvfIndex ivf;
  RESINFER_RETURN_IF_ERROR(LoadIvf(path, &ivf, options));
  return ivf;
}

Status SaveDdcPcaArtifacts(const std::string& path,
                           const core::DdcPcaArtifacts& artifacts) {
  return AtomicSave(path, [&](BinaryWriter& writer) {
    WriteHeader(writer, kDdcPcaMagic, kVersionChecksum);
    writer.BeginSection("stage_dims");
    writer.WriteVector(artifacts.stage_dims);
    writer.EndSection();
    writer.BeginSection("correctors");
    writer.Write<int32_t>(static_cast<int32_t>(artifacts.correctors.size()));
    for (const auto& corrector : artifacts.correctors) {
      WriteCorrectorPayload(writer, corrector);
    }
    writer.EndSection();
  });
}

Status LoadDdcPcaArtifacts(const std::string& path,
                           core::DdcPcaArtifacts* out) {
  BinaryReader reader(path);
  RESINFER_RETURN_IF_ERROR(OpenForRead(reader, path));
  uint32_t version = 0;
  RESINFER_RETURN_IF_ERROR(ReadVersionedHeader(
      reader, path, "ddc-pca", kDdcPcaMagic, kVersionChecksum,
      kVersionChecksum, &version));
  core::DdcPcaArtifacts artifacts;
  if (!reader.BeginSection("stage_dims") ||
      !reader.ReadVector(&artifacts.stage_dims) || !reader.EndSection()) {
    return Corrupt(reader, path, "truncated stage dims");
  }
  int32_t count = 0;
  if (!reader.BeginSection("correctors") || !reader.Read(&count))
    return Corrupt(reader, path, "truncated corrector count");
  if (count != static_cast<int32_t>(artifacts.stage_dims.size()))
    return Status::Corruption(path + ": corrector count mismatch");
  artifacts.correctors.resize(count);
  for (int32_t i = 0; i < count; ++i) {
    if (!ReadCorrectorPayload(reader, &artifacts.correctors[i]))
      return Corrupt(reader, path, "truncated corrector payload");
  }
  if (!reader.EndSection() || !reader.ExpectChecksumFooter())
    return Corrupt(reader, path, "bad ddc-pca footer");
  *out = std::move(artifacts);
  return Status::Ok();
}

Status SaveDdcOpqArtifacts(const std::string& path,
                           const core::DdcOpqArtifacts& artifacts) {
  return AtomicSave(path, [&](BinaryWriter& writer) {
    WriteHeader(writer, kDdcOpqMagic, kVersionLayoutChecksum);
    writer.BeginSection("rotation");
    WriteMatrixPayload(writer, artifacts.opq.rotation());
    writer.EndSection();
    WritePqPayload(writer, artifacts.opq.codebook());
    writer.BeginSection("codes");
    writer.WriteVector(artifacts.codes);
    writer.WriteVector(artifacts.recon_errors);
    writer.EndSection();
    writer.BeginSection("corrector");
    WriteCorrectorPayload(writer, artifacts.corrector);
    writer.EndSection();
  });
}

Status LoadDdcOpqArtifacts(const std::string& path,
                           core::DdcOpqArtifacts* out) {
  BinaryReader reader(path);
  RESINFER_RETURN_IF_ERROR(OpenForRead(reader, path));
  uint32_t version = 0;
  RESINFER_RETURN_IF_ERROR(ReadVersionedHeader(
      reader, path, "ddc-opq", kDdcOpqMagic, kVersionLayoutChecksum,
      kVersionLayoutChecksum, &version));
  linalg::Matrix rotation;
  if (!reader.BeginSection("rotation") ||
      !ReadMatrixPayload(reader, &rotation) || !reader.EndSection()) {
    return Corrupt(reader, path, "truncated rotation");
  }
  quant::PqCodebook pq;
  RESINFER_RETURN_IF_ERROR(ReadPqPayload(reader, path, "ddc-opq", version,
                                         kVersionCodeLayout, 4096, &pq));
  core::DdcOpqArtifacts artifacts;
  if (pq.dim() != rotation.rows() || rotation.rows() != rotation.cols())
    return Status::Corruption(path + ": rotation/codebook dim mismatch");
  artifacts.opq = quant::OpqModel::FromComponents(std::move(rotation),
                                                  std::move(pq));
  if (!reader.BeginSection("codes") ||
      !reader.ReadVector(&artifacts.codes) ||
      !reader.ReadVector(&artifacts.recon_errors) || !reader.EndSection()) {
    return Corrupt(reader, path, "truncated codes");
  }
  const int64_t code_size = artifacts.opq.codebook().code_size();
  if (code_size <= 0 ||
      artifacts.codes.size() % static_cast<std::size_t>(code_size) != 0 ||
      artifacts.codes.size() / static_cast<std::size_t>(code_size) !=
          artifacts.recon_errors.size()) {
    return Status::Corruption(path +
                              ": codes / reconstruction errors mismatch");
  }
  if (!reader.BeginSection("corrector") ||
      !ReadCorrectorPayload(reader, &artifacts.corrector) ||
      !reader.EndSection()) {
    return Corrupt(reader, path, "truncated corrector");
  }
  if (!reader.ExpectChecksumFooter())
    return Corrupt(reader, path, "bad ddc-opq footer");
  *out = std::move(artifacts);
  return Status::Ok();
}

Status SaveDdcRqCascadeArtifacts(
    const std::string& path, const core::DdcRqCascadeArtifacts& artifacts) {
  return AtomicSave(path, [&](BinaryWriter& writer) {
    WriteHeader(writer, kDdcRqCascadeMagic, kVersionLayoutChecksum);
    writer.BeginSection("meta");
    writer.Write<int32_t>(artifacts.rq.num_stages());
    WriteCodeLayout(writer, artifacts.rq.layout());
    writer.EndSection();
    writer.BeginSection("codebooks");
    for (int m = 0; m < artifacts.rq.num_stages(); ++m) {
      WriteMatrixPayload(writer, artifacts.rq.centroids(m));
    }
    writer.EndSection();
    writer.BeginSection("levels");
    std::vector<int32_t> levels(artifacts.levels.begin(),
                                artifacts.levels.end());
    writer.WriteVector(levels);
    writer.EndSection();
    writer.BeginSection("codes");
    writer.WriteVector(artifacts.codes);
    writer.WriteVector(artifacts.level_norms);
    writer.WriteVector(artifacts.level_errors);
    writer.EndSection();
    writer.BeginSection("correctors");
    writer.Write<int32_t>(static_cast<int32_t>(artifacts.correctors.size()));
    for (const auto& corrector : artifacts.correctors) {
      WriteCorrectorPayload(writer, corrector);
    }
    writer.EndSection();
  });
}

Status LoadDdcRqCascadeArtifacts(const std::string& path,
                                 core::DdcRqCascadeArtifacts* out) {
  BinaryReader reader(path);
  RESINFER_RETURN_IF_ERROR(OpenForRead(reader, path));
  uint32_t version = 0;
  RESINFER_RETURN_IF_ERROR(ReadVersionedHeader(
      reader, path, "ddc-rq-cascade", kDdcRqCascadeMagic,
      kVersionLayoutChecksum, kVersionLayoutChecksum, &version));
  quant::PqCodebook as_pq;
  RESINFER_RETURN_IF_ERROR(ReadPqPayload(reader, path, "ddc-rq-cascade",
                                         version, kVersionCodeLayout, 256,
                                         &as_pq));
  core::DdcRqCascadeArtifacts artifacts;
  {
    std::vector<linalg::Matrix> codebooks;
    codebooks.reserve(as_pq.num_subspaces());
    for (int s = 0; s < as_pq.num_subspaces(); ++s) {
      codebooks.push_back(as_pq.centroids(s).Clone());
    }
    artifacts.rq = quant::RqCodebook::FromCodebooks(std::move(codebooks),
                                                    as_pq.layout());
  }
  const int32_t stages = artifacts.rq.num_stages();

  std::vector<int32_t> levels;
  if (!reader.BeginSection("levels") || !reader.ReadVector(&levels) ||
      !reader.EndSection()) {
    return Corrupt(reader, path, "truncated levels");
  }
  if (levels.empty())
    return Status::Corruption(path + ": truncated levels");
  for (std::size_t l = 0; l < levels.size(); ++l) {
    if (levels[l] <= 0 || levels[l] > stages ||
        (l > 0 && levels[l] <= levels[l - 1])) {
      return Status::Corruption(path + ": invalid cascade levels");
    }
  }
  artifacts.levels.assign(levels.begin(), levels.end());

  if (!reader.BeginSection("codes") ||
      !reader.ReadVector(&artifacts.codes) ||
      !reader.ReadVector(&artifacts.level_norms) ||
      !reader.ReadVector(&artifacts.level_errors) || !reader.EndSection()) {
    return Corrupt(reader, path, "truncated cascade payload");
  }
  // The honest per-point byte count (packed layouts shrink it below the
  // stage count), so a packed cascade's codes validate against what its
  // readers will actually index.
  const auto code_size = static_cast<std::size_t>(artifacts.rq.code_size());
  const std::size_t num_levels = levels.size();
  if (artifacts.codes.size() % code_size != 0)
    return Status::Corruption(path + ": codes size mismatch");
  const std::size_t n = artifacts.codes.size() / code_size;
  if (artifacts.level_norms.size() != n * num_levels ||
      artifacts.level_errors.size() != n * num_levels) {
    return Status::Corruption(path + ": per-level payload size mismatch");
  }

  int32_t num_correctors = 0;
  if (!reader.BeginSection("correctors") || !reader.Read(&num_correctors))
    return Corrupt(reader, path, "truncated corrector count");
  if (num_correctors != static_cast<int32_t>(num_levels))
    return Status::Corruption(path + ": corrector count mismatch");
  artifacts.correctors.resize(static_cast<std::size_t>(num_correctors));
  for (auto& corrector : artifacts.correctors) {
    if (!ReadCorrectorPayload(reader, &corrector))
      return Corrupt(reader, path, "truncated corrector payload");
  }
  if (!reader.EndSection() || !reader.ExpectChecksumFooter())
    return Corrupt(reader, path, "bad cascade footer");
  *out = std::move(artifacts);
  return Status::Ok();
}

namespace {

struct FormatInfo {
  const char* magic;
  const char* name;
  uint32_t checksum_version;
  uint32_t max_version;
};

constexpr FormatInfo kFormats[] = {
    {kMatrixMagic, "matrix", kVersionChecksum, kMatrixVersionAligned},
    {kPcaMagic, "pca model", kVersionChecksum, kVersionChecksum},
    {kPqMagic, "pq codebook", kVersionLayoutChecksum, kVersionLayoutChecksum},
    {kOpqMagic, "opq model", kVersionLayoutChecksum, kVersionLayoutChecksum},
    {kRqMagic, "rq codebook", kVersionLayoutChecksum, kVersionLayoutChecksum},
    {kSqMagic, "sq codebook", kVersionChecksum, kVersionChecksum},
    {kCorrectorMagic, "linear corrector", kVersionChecksum, kVersionChecksum},
    {kHnswMagic, "hnsw graph", kVersionChecksum, kVersionChecksum},
    {kIvfMagic, "ivf index", kIvfVersionChecksum, kIvfVersionStorage},
    {kDdcPcaMagic, "ddc-pca artifacts", kVersionChecksum, kVersionChecksum},
    {kDdcOpqMagic, "ddc-opq artifacts", kVersionLayoutChecksum,
     kVersionLayoutChecksum},
    {kDdcRqCascadeMagic, "ddc-rq-cascade artifacts", kVersionLayoutChecksum,
     kVersionLayoutChecksum},
};

}  // namespace

// Format-agnostic envelope walk: the section frames are self-describing
// ([name_len][name][payload_len][payload][crc]), so checksums can be
// verified without any knowledge of the payload layout — this is what
// `resinfer_inspect --verify` runs before anything tries a full load.
Status VerifyFile(const std::string& path, std::string* format_name) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    return Status::NotFound(path + ": cannot open for reading");
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  char magic[8];
  uint32_t version = 0;
  if (std::fread(magic, 1, 8, f) != 8 ||
      std::fread(&version, sizeof(version), 1, f) != 1) {
    return Status::Corruption(path + ": truncated header");
  }
  const FormatInfo* format = nullptr;
  for (const auto& candidate : kFormats) {
    if (std::memcmp(magic, candidate.magic, 8) == 0) {
      format = &candidate;
      break;
    }
  }
  if (format == nullptr)
    return Status::InvalidArgument(path + ": not a resinfer persist file");
  if (format_name != nullptr) *format_name = format->name;
  if (version < 1 || version > format->max_version)
    return Status::Corruption(
        path + ": " + format->name + " version " + std::to_string(version) +
        " is outside this build's supported range [1, " +
        std::to_string(format->max_version) + "]");
  if (version < format->checksum_version)
    return Status::FailedPrecondition(
        path + ": " + format->name + " version " + std::to_string(version) +
        " predates checksums (v" + std::to_string(format->checksum_version) +
        "); only a full load can validate it");

  std::vector<uint32_t> section_crcs;
  std::vector<uint8_t> buf(1 << 16);
  for (;;) {
    uint8_t name_len = 0;
    if (std::fread(&name_len, 1, 1, f) != 1)
      return Status::Corruption(path + ": truncated before footer");
    if (name_len == 0) break;  // footer marker
    char name[256];
    if (std::fread(name, 1, name_len, f) != name_len)
      return Status::Corruption(path + ": truncated section name");
    name[name_len] = '\0';
    uint64_t payload_len = 0;
    if (std::fread(&payload_len, sizeof(payload_len), 1, f) != 1)
      return Status::Corruption(path + ": section '" + std::string(name) +
                                "': truncated length");
    uint32_t crc = 0;
    uint64_t remaining = payload_len;
    while (remaining > 0) {
      const std::size_t chunk = remaining < buf.size()
                                    ? static_cast<std::size_t>(remaining)
                                    : buf.size();
      if (std::fread(buf.data(), 1, chunk, f) != chunk)
        return Status::Corruption(path + ": section '" + std::string(name) +
                                  "': truncated payload");
      crc = simd::Crc32c(crc, buf.data(), chunk);
      remaining -= chunk;
    }
    uint32_t stored = 0;
    if (std::fread(&stored, sizeof(stored), 1, f) != 1)
      return Status::Corruption(path + ": section '" + std::string(name) +
                                "': truncated checksum");
    if (stored != crc)
      return Status::Corruption(path + ": section '" + std::string(name) +
                                "': checksum mismatch");
    section_crcs.push_back(stored);
  }
  uint32_t count = 0, digest = 0;
  if (std::fread(&count, sizeof(count), 1, f) != 1 ||
      std::fread(&digest, sizeof(digest), 1, f) != 1) {
    return Status::Corruption(path + ": truncated footer");
  }
  if (count != section_crcs.size())
    return Status::Corruption(path + ": footer section count mismatch");
  const uint32_t expected =
      section_crcs.empty()
          ? simd::Crc32c(0, nullptr, 0)
          : simd::Crc32c(0, section_crcs.data(),
                         section_crcs.size() * sizeof(uint32_t));
  if (digest != expected)
    return Status::Corruption(path + ": footer digest mismatch");
  // Trailing bytes after the footer are not part of any section and would
  // otherwise escape checksumming entirely.
  uint8_t extra = 0;
  if (std::fread(&extra, 1, 1, f) == 1)
    return Status::Corruption(path + ": trailing bytes after footer");
  return Status::Ok();
}

// Same envelope walk as VerifyFile but structural only: payloads are
// seeked over, not hashed, so listing a multi-GB index touches a few KB of
// frames. The offsets it reports are what the mmap loader aligns against.
Status ListSections(const std::string& path, std::vector<SectionInfo>* out,
                    std::string* format_name, uint32_t* version_out) {
  out->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    return Status::NotFound(path + ": cannot open for reading");
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  char magic[8];
  uint32_t version = 0;
  if (std::fread(magic, 1, 8, f) != 8 ||
      std::fread(&version, sizeof(version), 1, f) != 1) {
    return Status::Corruption(path + ": truncated header");
  }
  const FormatInfo* format = nullptr;
  for (const auto& candidate : kFormats) {
    if (std::memcmp(magic, candidate.magic, 8) == 0) {
      format = &candidate;
      break;
    }
  }
  if (format == nullptr)
    return Status::InvalidArgument(path + ": not a resinfer persist file");
  if (format_name != nullptr) *format_name = format->name;
  if (version_out != nullptr) *version_out = version;
  if (version < 1 || version > format->max_version)
    return Status::Corruption(
        path + ": " + format->name + " version " + std::to_string(version) +
        " is outside this build's supported range [1, " +
        std::to_string(format->max_version) + "]");
  if (version < format->checksum_version)
    return Status::FailedPrecondition(
        path + ": " + format->name + " version " + std::to_string(version) +
        " predates the section envelope; there are no sections to list");

  for (;;) {
    uint8_t name_len = 0;
    if (std::fread(&name_len, 1, 1, f) != 1)
      return Status::Corruption(path + ": truncated before footer");
    if (name_len == 0) break;  // footer marker
    char name[256];
    if (std::fread(name, 1, name_len, f) != name_len)
      return Status::Corruption(path + ": truncated section name");
    name[name_len] = '\0';
    uint64_t payload_len = 0;
    if (std::fread(&payload_len, sizeof(payload_len), 1, f) != 1)
      return Status::Corruption(path + ": section '" + std::string(name) +
                                "': truncated length");
    SectionInfo info;
    info.name = name;
    info.payload_offset = static_cast<int64_t>(std::ftell(f));
    info.payload_bytes = static_cast<int64_t>(payload_len);
    info.aligned =
        info.payload_offset % static_cast<int64_t>(kCacheLineBytes) == 0;
    if (info.payload_offset < 0 || info.payload_bytes < 0 ||
        std::fseek(f, static_cast<long>(payload_len), SEEK_CUR) != 0) {
      return Status::Corruption(path + ": section '" + std::string(name) +
                                "': truncated payload");
    }
    if (std::fread(&info.crc, sizeof(info.crc), 1, f) != 1)
      return Status::Corruption(path + ": section '" + std::string(name) +
                                "': truncated checksum");
    out->push_back(std::move(info));
  }
  uint32_t count = 0, digest = 0;
  if (std::fread(&count, sizeof(count), 1, f) != 1 ||
      std::fread(&digest, sizeof(digest), 1, f) != 1) {
    return Status::Corruption(path + ": truncated footer");
  }
  if (count != out->size())
    return Status::Corruption(path + ": footer section count mismatch");
  return Status::Ok();
}

}  // namespace resinfer::persist

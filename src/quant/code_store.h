// CodeStore: fixed-stride packed per-point records for code-resident scans.
//
// Every distance-estimation method in this library keeps its quantized
// codes in an id-indexed array plus one or more per-point float "sidecar"
// features (reconstruction errors, reconstruction norms — the corrector
// inputs). The refinement hot loop therefore performs one random memory
// access per candidate even when the candidate *ids* are bucket-contiguous
// (the PR 2 CSR layout). A CodeStore packs everything a method needs per
// point into one fixed-stride record:
//
//   record(i) = [ code bytes (code_size) | pad to 4 | sidecar floats ]
//
// so that an IVF bucket can own a bucket-contiguous copy (see
// IvfIndex::AttachCodes) and estimators can stream records sequentially via
// DistanceComputer::EstimateBatchCodes instead of gathering by id. Records
// start at 4-byte-aligned offsets, so the sidecar floats (and float-typed
// code payloads, e.g. the PCA-rotated row heads DDCpca/DDCres use) can be
// read in place.
//
// Ownership (PR 10): the record bytes live in a storage::Blob — a
// shared-ownership handle whose backing may be a heap allocation or a
// slice of an mmap'd index file. A store is *mutable* only while it was
// built by the filling constructor (or Clone/PermutedBy) and still owns
// its bytes exclusively; ShareView() hands out zero-copy immutable views
// that keep the bytes alive (the attach path IvfIndex and the serving
// layer use instead of deep-copying multi-GB code sections), and
// FromBlob() wraps persisted bytes — including mmap slices — without
// copying. The class is move-only: an accidental copy of a code section is
// always a bug; say Clone() or ShareView() to state which one you meant.
//
// The `tag` string identifies the producing method and layout
// (MakeCodeTag); indexes compare it against DistanceComputer::code_tag()
// before routing a scan through the code-resident path, so a store built
// for one method is never fed to another.
#ifndef RESINFER_QUANT_CODE_STORE_H_
#define RESINFER_QUANT_CODE_STORE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "quant/code_layout.h"
#include "storage/storage.h"
#include "util/macros.h"
#include "util/status.h"

namespace resinfer::quant {

// Byte offset of the sidecar floats inside a record: the packed code,
// padded to the next 4-byte boundary.
constexpr int64_t CodeSidecarOffset(int64_t code_size) {
  return (code_size + 3) & ~int64_t{3};
}

// Bytes per record. With zero sidecars the record is just the padded code,
// so successive records stay 4-byte aligned either way.
constexpr int64_t CodeRecordStride(int64_t code_size, int num_sidecars) {
  return CodeSidecarOffset(code_size) +
         static_cast<int64_t>(num_sidecars) * static_cast<int64_t>(sizeof(float));
}

// Sidecar floats of a record laid out with the given code_size. The store
// guarantees 4-byte alignment of this address.
inline const float* RecordSidecars(const uint8_t* record, int64_t code_size) {
  return reinterpret_cast<const float*>(record + CodeSidecarOffset(code_size));
}

class CodeStore {
 public:
  CodeStore() = default;
  // n zero-initialized records in a fresh 64-byte-aligned heap allocation;
  // fill with SetCode / SetSidecar. `packing` declares how the code bytes
  // encode sub-codes (quant/code_layout.h) so a packed 4-bit store can
  // never be mistaken for a byte-per-code one — scan routing checks the
  // tag, persist validates the explicit field.
  CodeStore(int64_t n, int64_t code_size, int num_sidecars, std::string tag,
            CodePacking packing = CodePacking::kBytePerCode);

  // Move-only (see the header comment): copies must be spelled Clone()
  // (deep, mutable) or ShareView() (zero-copy, immutable).
  CodeStore(CodeStore&&) noexcept = default;
  CodeStore& operator=(CodeStore&&) noexcept = default;
  CodeStore(const CodeStore&) = delete;
  CodeStore& operator=(const CodeStore&) = delete;

  bool empty() const { return n_ == 0; }
  int64_t size() const { return n_; }
  int64_t code_size() const { return code_size_; }
  int num_sidecars() const { return num_sidecars_; }
  CodePacking packing() const { return packing_; }
  int64_t sidecar_offset() const { return CodeSidecarOffset(code_size_); }
  int64_t stride() const { return stride_; }
  const std::string& tag() const { return tag_; }

  const uint8_t* data() const { return data_.data(); }
  int64_t data_bytes() const { return data_.size(); }

  // The storage handle backing the records. Sharing it (directly or via
  // ShareView) keeps the bytes alive — this is what the serving layer pins
  // per dispatched group.
  const storage::Blob& storage() const { return data_; }
  // Where the record bytes physically live: kMemory for built/deserialized
  // stores, kMmap for stores wrapped around a mapped file slice.
  storage::StorageBackend storage_backend() const { return backend_; }
  // True for stores created by ShareView/FromBlob: the records are
  // immutable and (possibly) shared, so the mutation API is off-limits.
  bool is_view() const { return mutable_data_ == nullptr && n_ > 0; }

  const uint8_t* record(int64_t i) const { return data_.data() + i * stride_; }
  uint8_t* mutable_record(int64_t i) {
    RESINFER_DCHECK(mutable_data_ != nullptr);
    return mutable_data_ + i * stride_;
  }

  void SetCode(int64_t i, const uint8_t* code) {
    std::memcpy(mutable_record(i), code, static_cast<std::size_t>(code_size_));
  }
  void SetSidecar(int64_t i, int feature, float value) {
    std::memcpy(mutable_record(i) + sidecar_offset() +
                    static_cast<int64_t>(feature) * sizeof(float),
                &value, sizeof(float));
  }
  float Sidecar(int64_t i, int feature) const {
    return RecordSidecars(record(i), code_size_)[feature];
  }

  // New store with out.record(j) == record(order[j]) — the bucket
  // permutation. Every entry of `order` must lie in [0, size()).
  CodeStore PermutedBy(const std::vector<int64_t>& order) const;

  // Zero-copy immutable view of the same records: shares the storage
  // handle, so no bytes move and the backing (heap block or mmap) stays
  // alive as long as any view does. This is the attach/pin path — the
  // alternative to the deep copy AttachCodes used to make.
  CodeStore ShareView() const;

  // Deep, independently mutable copy (the old copy-constructor semantics,
  // now explicit).
  CodeStore Clone() const;

  // Rebuilds a store from persisted parts; validates that `data` is exactly
  // n records of the declared layout (rejecting truncated or oversized
  // payloads) and returns a non-OK Status otherwise — the parts come off
  // disk, so nothing here may abort. The vector is adopted without copying.
  static util::Status FromParts(int64_t n, int64_t code_size,
                                int num_sidecars, std::string tag,
                                std::vector<uint8_t> data, CodeStore* out,
                                CodePacking packing =
                                    CodePacking::kBytePerCode);

  // Same validation as FromParts over an existing storage handle — the
  // zero-copy load path: `data` is typically a 64-byte-aligned slice of an
  // mmap'd v6 index file, and `backend` records where those bytes live.
  // The resulting store is an immutable view.
  static util::Status FromBlob(int64_t n, int64_t code_size, int num_sidecars,
                               std::string tag, storage::Blob data,
                               CodeStore* out,
                               CodePacking packing = CodePacking::kBytePerCode,
                               storage::StorageBackend backend =
                                   storage::StorageBackend::kMemory);

 private:
  int64_t n_ = 0;
  int64_t code_size_ = 0;
  int num_sidecars_ = 0;
  int64_t stride_ = 0;
  CodePacking packing_ = CodePacking::kBytePerCode;
  storage::StorageBackend backend_ = storage::StorageBackend::kMemory;
  std::string tag_;
  // Record bytes. stride_ is a multiple of 4 and every backing starts at
  // least 4-byte aligned (64 for built stores and v6 mmap slices), so
  // in-record floats are always readable in place.
  storage::Blob data_;
  // Non-null only while this store exclusively owns freshly built bytes;
  // views and blob-wrapped stores leave it null, making mutation a
  // (debug-checked) contract violation rather than a data race.
  uint8_t* mutable_data_ = nullptr;
};

// FNV-1a over a byte range; chain calls through `seed` to fingerprint
// several arrays as one value.
inline constexpr uint64_t kFingerprintSeed = 1469598103934665603ull;
uint64_t FingerprintBytes(const void* data, std::size_t bytes,
                          uint64_t seed = kFingerprintSeed);

// Bounded-cost array fingerprint: hashes the length plus at most ~64KB of
// evenly spaced chunks, so tagging a computer stays cheap even when the
// tag covers the whole rotated base (DDCpca/DDCres at millions of rows).
// Retrained artifacts differ essentially everywhere, so sampling still
// catches staleness; this is a guard against accidental store/computer
// mismatch, not an integrity MAC.
uint64_t FingerprintArray(const void* data, std::size_t bytes,
                          uint64_t seed = kFingerprintSeed);

// Canonical tag for a method's store: method name, the layout numbers that
// must match at scan time, and a fingerprint of the content the records
// were packed from. Layout alone is not enough — retraining a codebook
// with the same shape produces byte-different codes, and a stale persisted
// store must fall back to the gather path, not be streamed as current.
// Packed stores carry a "/pk4" marker (byte-per-code tags are unchanged so
// pre-existing persisted stores keep matching their computers): a packed
// store can therefore never tag-match a byte-per-code scan or vice versa.
std::string MakeCodeTag(const std::string& method, int64_t code_size,
                        int num_sidecars, int64_t n, uint64_t fingerprint,
                        CodePacking packing = CodePacking::kBytePerCode);

}  // namespace resinfer::quant

#endif  // RESINFER_QUANT_CODE_STORE_H_

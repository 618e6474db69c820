// Minimal binary (de)serialization streams for model/index persistence.
//
// Format conventions used by every Save/Load in this library:
//   * little-endian PODs (the library targets x86-64),
//   * containers as  int64 count  followed by raw payload,
//   * each file starts with a 8-byte magic and a uint32 version.
// Readers never trust the payload: every count is bounded by the bytes the
// file can still deliver (BytesRemaining) before anything is allocated
// from it, and every read is checked, so truncated or corrupted files
// fail cleanly instead of over-allocating.
//
// Checksummed envelope (persist format v5, see docs/persistence.md): the
// payload after the header is split into named sections
//   [u8 name_len > 0][name][u64 payload_len][payload][u32 crc32c(payload)]
// terminated by a footer
//   [u8 0][u32 num_sections][u32 crc32c(all section CRC words, in order)]
// The CRC covers only the payload; the frame fields are protected
// structurally (the reader knows which section name it expects and cross-
// checks consumed-vs-declared length), which keeps checksums composable
// without buffering whole sections. Writers always emit the envelope;
// readers toggle it per file version via set_checksummed() so one parse
// path serves both legacy and checksummed files.
#ifndef RESINFER_UTIL_BINARY_IO_H_
#define RESINFER_UTIL_BINARY_IO_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "simd/kernels.h"

namespace resinfer {

class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path)
      : file_(std::fopen(path.c_str(), "wb")) {}

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  ~BinaryWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }

  // Flushes and closes, returning false if any write — including stdio's
  // buffered flush at close, which the destructor cannot report — failed.
  // Idempotent; further writes after Close fail.
  bool Close() {
    if (file_ != nullptr) {
      if (std::fclose(file_) != 0) Fail("flush on close failed");
      file_ = nullptr;
      closed_ok_ = !failed_;
    }
    return closed_ok_ && !failed_;
  }

  bool ok() const { return (file_ != nullptr || closed_ok_) && !failed_; }

  // Why the first write failed ("disk full", "flush on close failed", ...);
  // empty while ok().
  const std::string& fail_reason() const { return fail_reason_; }

  void WriteBytes(const void* data, std::size_t bytes) {
    if (file_ == nullptr) {
      // Write-after-Close is a caller bug: poison the writer so the next
      // ok()/Close() check reports it (a never-opened writer is already
      // not ok()).
      if (closed_ok_) Fail("write after Close");
      return;
    }
    if (failed_) return;
    if (write_limit_ >= 0 &&
        bytes_written_ + static_cast<int64_t>(bytes) > write_limit_) {
      // Injected ENOSPC for fault tests: behaves like a full disk.
      Fail("disk full");
      return;
    }
    if (std::fwrite(data, 1, bytes, file_) != bytes) {
      Fail("short write");
      return;
    }
    bytes_written_ += static_cast<int64_t>(bytes);
    if (in_section_) {
      section_crc_ = simd::Crc32c(section_crc_, data, bytes);
      section_bytes_ += static_cast<uint64_t>(bytes);
    }
  }

  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(&value, sizeof(T));
  }

  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write<int64_t>(static_cast<int64_t>(v.size()));
    if (!v.empty()) WriteBytes(v.data(), v.size() * sizeof(T));
  }

  void WriteString(const std::string& s) {
    Write<int64_t>(static_cast<int64_t>(s.size()));
    if (!s.empty()) WriteBytes(s.data(), s.size());
  }

  // Raw float block (e.g. matrix payload) with explicit element count.
  void WriteFloats(const float* data, int64_t count) {
    WriteBytes(data, static_cast<std::size_t>(count) * sizeof(float));
  }

  // Current file offset (buffered bytes included), or -1 after close/
  // failure. Writers of aligned layouts (persist v6) use this to compute
  // padding so a payload lands on a given file-offset boundary.
  int64_t Tell() const {
    if (file_ == nullptr || failed_) return -1;
    return static_cast<int64_t>(std::ftell(file_));
  }

  // Zero padding so the NEXT write lands on a file offset that is a
  // multiple of `alignment`, emitted as [u32 pad_len][pad_len zero bytes]
  // (the u32 is accounted for, so readers can skip without re-deriving the
  // arithmetic). Alignment must be a power of two <= 4096.
  void WriteAlignmentPad(int64_t alignment) {
    if (alignment <= 0 || alignment > 4096 ||
        (alignment & (alignment - 1)) != 0) {
      Fail("WriteAlignmentPad misuse");
      return;
    }
    const int64_t pos = Tell();
    if (pos < 0) return;
    const int64_t after_len = pos + static_cast<int64_t>(sizeof(uint32_t));
    const auto pad = static_cast<uint32_t>((alignment - after_len % alignment) %
                                           alignment);
    Write<uint32_t>(pad);
    static constexpr uint8_t kZeros[64] = {};
    uint32_t remaining = pad;
    while (remaining > 0 && ok()) {
      const uint32_t chunk = remaining < sizeof(kZeros)
                                 ? remaining
                                 : static_cast<uint32_t>(sizeof(kZeros));
      WriteBytes(kZeros, chunk);
      remaining -= chunk;
    }
  }

  // Opens a checksummed section: everything written until EndSection() is
  // the section payload, CRC'd and length-counted. Sections must not nest.
  void BeginSection(const char* name) {
    const std::size_t len = std::strlen(name);
    if (in_section_ || len == 0 || len > 255) {
      Fail("BeginSection misuse");
      return;
    }
    const uint8_t len8 = static_cast<uint8_t>(len);
    WriteBytes(&len8, 1);
    WriteBytes(name, len);
    if (!ok()) return;
    len_patch_pos_ = std::ftell(file_);
    Write<uint64_t>(0);  // placeholder, patched by EndSection
    in_section_ = true;
    section_crc_ = 0;
    section_bytes_ = 0;
  }

  // Closes the current section: seeks back to patch the real payload
  // length, then appends the payload CRC.
  void EndSection() {
    if (!in_section_) {
      Fail("EndSection without BeginSection");
      return;
    }
    in_section_ = false;
    if (!ok()) return;
    const long end = std::ftell(file_);
    if (len_patch_pos_ < 0 || end < 0 ||
        std::fseek(file_, len_patch_pos_, SEEK_SET) != 0) {
      Fail("seek failed while patching section length");
      return;
    }
    // The patch rewrites the 8 placeholder bytes already counted against
    // the write limit; rewind the counter so they are not double-billed.
    bytes_written_ -= 8;
    Write<uint64_t>(section_bytes_);
    if (!ok()) return;
    if (std::fseek(file_, end, SEEK_SET) != 0) {
      Fail("seek failed while patching section length");
      return;
    }
    Write<uint32_t>(section_crc_);
    section_crcs_.push_back(section_crc_);
  }

  // Terminates the section stream: a zero name-length marker, the section
  // count, and a digest over the per-section CRC words (so a file with a
  // whole section spliced out fails even though each remaining section's
  // own CRC still matches).
  void WriteChecksumFooter() {
    if (in_section_) {
      Fail("WriteChecksumFooter inside a section");
      return;
    }
    const uint8_t zero = 0;
    WriteBytes(&zero, 1);
    Write<uint32_t>(static_cast<uint32_t>(section_crcs_.size()));
    const uint32_t digest =
        section_crcs_.empty()
            ? simd::Crc32c(0, nullptr, 0)
            : simd::Crc32c(0, section_crcs_.data(),
                           section_crcs_.size() * sizeof(uint32_t));
    Write<uint32_t>(digest);
  }

  // Flushes stdio buffers and fsyncs the fd so the bytes survive a crash
  // before the atomic rename publishes them. Returns false on any failure.
  bool SyncToDisk() {
    if (file_ == nullptr || failed_) return false;
    if (std::fflush(file_) != 0) {
      Fail("flush failed");
      return false;
    }
#if !defined(_WIN32)
    if (::fsync(::fileno(file_)) != 0) {
      Fail("fsync failed");
      return false;
    }
#endif
    return true;
  }

  // Fault injection: writes fail (as if the disk were full) once the total
  // would exceed `bytes`. Negative disables the limit.
  void set_write_limit_for_testing(int64_t bytes) { write_limit_ = bytes; }

 private:
  void Fail(const char* reason) {
    failed_ = true;
    if (fail_reason_.empty()) fail_reason_ = reason;
  }

  std::FILE* file_ = nullptr;
  bool failed_ = false;
  bool closed_ok_ = false;
  std::string fail_reason_;
  int64_t bytes_written_ = 0;
  int64_t write_limit_ = -1;
  bool in_section_ = false;
  uint32_t section_crc_ = 0;
  uint64_t section_bytes_ = 0;
  long len_patch_pos_ = -1;
  std::vector<uint32_t> section_crcs_;
};

class BinaryReader {
 public:
  // `max_elements` bounds any single container read; protects against
  // corrupted counts causing huge allocations.
  explicit BinaryReader(const std::string& path,
                        int64_t max_elements = (1LL << 33))
      : file_(std::fopen(path.c_str(), "rb")), max_elements_(max_elements) {
    // The file's length, taken once: the outer bound of BytesRemaining.
    if (file_ == nullptr) return;
    if (std::fseek(file_, 0, SEEK_END) == 0) {
      file_size_ = static_cast<int64_t>(std::ftell(file_));
    }
    if (file_size_ < 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
      Fail("cannot determine the file size");
    }
  }

  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  ~BinaryReader() {
    if (file_ != nullptr) std::fclose(file_);
  }

  bool ok() const { return file_ != nullptr && !failed_; }

  // Why the first read failed ("unexpected end of file", "section 'codes':
  // checksum mismatch", ...); empty while ok().
  const std::string& fail_reason() const { return fail_reason_; }

  void ReadBytes(void* data, std::size_t bytes) {
    if (!ok()) return;
    if (in_section_) {
      if (static_cast<uint64_t>(bytes) > payload_remaining_) {
        Fail("section '" + section_name_ +
             "': loader read past the declared payload length");
        return;
      }
      payload_remaining_ -= static_cast<uint64_t>(bytes);
    }
    if (std::fread(data, 1, bytes, file_) != bytes) {
      Fail("unexpected end of file");
      return;
    }
    position_ += static_cast<int64_t>(bytes);
    if (in_section_) section_crc_ = simd::Crc32c(section_crc_, data, bytes);
  }

  template <typename T>
  bool Read(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    ReadBytes(value, sizeof(T));
    return ok();
  }

  // Bytes a loader can still consume: the rest of the file, and inside a
  // section also no more than the rest of its declared payload. A count
  // read from the file is checked against this before it sizes anything.
  uint64_t BytesRemaining() const {
    const uint64_t in_file =
        !ok() || position_ > file_size_
            ? 0
            : static_cast<uint64_t>(file_size_ - position_);
    return in_section_ && payload_remaining_ < in_file ? payload_remaining_
                                                       : in_file;
  }

  // True when `count` elements of `element_bytes` each are within
  // max_elements() and fit in BytesRemaining(); fails the reader
  // otherwise.
  bool CheckCount(int64_t count, std::size_t element_bytes) {
    if (count < 0 || count > max_elements_ ||
        static_cast<uint64_t>(count) > BytesRemaining() / element_bytes) {
      Fail("container count out of range");
      return false;
    }
    return true;
  }

  template <typename T>
  bool ReadVector(std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    int64_t count = 0;
    if (!Read(&count) || !CheckCount(count, sizeof(T))) return false;
    v->resize(static_cast<std::size_t>(count));
    if (count > 0) ReadBytes(v->data(), v->size() * sizeof(T));
    return ok();
  }

  bool ReadString(std::string* s) {
    int64_t count = 0;
    if (!Read(&count) || !CheckCount(count, 1)) return false;
    s->resize(static_cast<std::size_t>(count));
    if (count > 0) ReadBytes(s->data(), s->size());
    return ok();
  }

  bool ReadFloats(float* data, int64_t count) {
    ReadBytes(data, static_cast<std::size_t>(count) * sizeof(float));
    return ok();
  }

  // Current file offset, or -1 on failure. Mmap loaders use this to record
  // where an aligned payload starts before skipping over it.
  int64_t Tell() const {
    if (file_ == nullptr || failed_) return -1;
    return static_cast<int64_t>(std::ftell(file_));
  }

  // Consumes padding written by WriteAlignmentPad: [u32 pad_len][pad
  // bytes]. The pad participates in the section CRC like any payload
  // bytes. Rejects pads >= `alignment` (a corrupt length would otherwise
  // let an attacker-shaped file desynchronize the parse).
  bool ReadAlignmentPad(int64_t alignment) {
    uint32_t pad = 0;
    if (!Read(&pad)) return false;
    if (pad >= static_cast<uint32_t>(alignment)) {
      Fail("alignment pad longer than the alignment");
      return false;
    }
    uint8_t scratch[4096];
    if (pad > 0) ReadBytes(scratch, pad);
    return ok();
  }

  // Seeks forward over `bytes` of the current section's payload WITHOUT
  // checksumming it — the mmap load path, where the payload is served
  // lazily from the file and hashing it would fault in every page the
  // zero-copy design exists to avoid. The section's stored CRC still
  // enters the footer digest (EndSection), so the envelope stays
  // structurally verified; content verification of skipped sections is
  // VerifyFile's job (see docs/storage.md).
  bool SkipPayload(uint64_t bytes) {
    if (!ok()) return false;
    if (!in_section_) {
      Fail("SkipPayload outside a section");
      return false;
    }
    if (bytes > payload_remaining_) {
      Fail("section '" + section_name_ +
           "': skip past the declared payload length");
      return false;
    }
    if (std::fseek(file_, static_cast<long>(bytes), SEEK_CUR) != 0) {
      Fail("seek failed while skipping payload");
      return false;
    }
    payload_remaining_ -= bytes;
    position_ += static_cast<int64_t>(bytes);
    section_crc_skipped_ = true;
    return true;
  }

  // Validates a magic/version header written by WriteHeader.
  bool ExpectHeader(const char magic[8], uint32_t expected_version) {
    char got[8];
    ReadBytes(got, 8);
    uint32_t version = 0;
    if (!Read(&version)) return false;
    if (std::memcmp(got, magic, 8) != 0 || version != expected_version) {
      Fail("bad magic or version");
      return false;
    }
    return true;
  }

  int64_t max_elements() const { return max_elements_; }

  // Toggles the v5 section envelope. Loaders call this after parsing the
  // version field: pre-v5 files carry no frames, so with checksumming off
  // Begin/EndSection and ExpectChecksumFooter are no-ops and the same
  // loader body parses every version.
  void set_checksummed(bool on) { checksummed_ = on; }
  bool checksummed() const { return checksummed_; }

  // Opens the next section and verifies it is the one the loader expects.
  bool BeginSection(const char* expected_name) {
    if (!checksummed_) return ok();
    if (!ok()) return false;
    if (in_section_) {
      Fail("BeginSection misuse");
      return false;
    }
    uint8_t len = 0;
    ReadBytes(&len, 1);
    if (!ok()) {
      Fail(std::string("truncated before section '") + expected_name + "'");
      return false;
    }
    if (len == 0) {
      Fail(std::string("expected section '") + expected_name +
           "' but found the footer marker");
      return false;
    }
    char name[256];
    ReadBytes(name, len);
    if (!ok()) return false;
    name[len] = '\0';
    if (std::strcmp(name, expected_name) != 0) {
      Fail(std::string("expected section '") + expected_name +
           "' but found '" + name + "'");
      return false;
    }
    uint64_t payload_len = 0;
    if (!Read(&payload_len)) return false;
    in_section_ = true;
    section_name_ = expected_name;
    payload_remaining_ = payload_len;
    section_crc_ = 0;
    return true;
  }

  // Closes the current section: the loader must have consumed exactly the
  // declared payload, and the stored CRC must match the computed one —
  // unless part of the payload was skipped (SkipPayload), in which case
  // the stored CRC is recorded for the footer digest but cannot be
  // compared against a full recomputation.
  bool EndSection() {
    if (!checksummed_) return ok();
    if (!in_section_) {
      Fail("EndSection without BeginSection");
      return false;
    }
    in_section_ = false;
    const bool skipped = section_crc_skipped_;
    section_crc_skipped_ = false;
    if (!ok()) return false;
    if (payload_remaining_ != 0) {
      Fail("section '" + section_name_ +
           "': loader consumed fewer bytes than declared");
      return false;
    }
    uint32_t stored = 0;
    if (!Read(&stored)) return false;
    if (!skipped && stored != section_crc_) {
      Fail("section '" + section_name_ + "': checksum mismatch");
      return false;
    }
    section_crcs_.push_back(stored);
    return true;
  }

  // Validates the footer written by WriteChecksumFooter against the
  // sections read so far.
  bool ExpectChecksumFooter() {
    if (!checksummed_) return ok();
    if (in_section_) {
      Fail("ExpectChecksumFooter inside a section");
      return false;
    }
    uint8_t marker = 0;
    ReadBytes(&marker, 1);
    if (!ok()) return false;
    if (marker != 0) {
      Fail("footer marker missing (extra section in file?)");
      return false;
    }
    uint32_t count = 0;
    if (!Read(&count)) return false;
    if (count != section_crcs_.size()) {
      Fail("footer section count mismatch");
      return false;
    }
    uint32_t digest = 0;
    if (!Read(&digest)) return false;
    const uint32_t expected =
        section_crcs_.empty()
            ? simd::Crc32c(0, nullptr, 0)
            : simd::Crc32c(0, section_crcs_.data(),
                           section_crcs_.size() * sizeof(uint32_t));
    if (digest != expected) {
      Fail("footer digest mismatch");
      return false;
    }
    return true;
  }

 private:
  void Fail(std::string reason) {
    failed_ = true;
    if (fail_reason_.empty()) fail_reason_ = std::move(reason);
  }

  std::FILE* file_ = nullptr;
  bool failed_ = false;
  int64_t file_size_ = -1;
  int64_t position_ = 0;  // bytes consumed (read or skipped) so far
  int64_t max_elements_;
  std::string fail_reason_;
  bool checksummed_ = false;
  bool in_section_ = false;
  bool section_crc_skipped_ = false;
  std::string section_name_;
  uint64_t payload_remaining_ = 0;
  uint32_t section_crc_ = 0;
  std::vector<uint32_t> section_crcs_;
};

inline void WriteHeader(BinaryWriter& writer, const char magic[8],
                        uint32_t version) {
  writer.WriteBytes(magic, 8);
  writer.Write(version);
}

}  // namespace resinfer

#endif  // RESINFER_UTIL_BINARY_IO_H_

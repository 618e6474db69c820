// Storage backend unit suite: Blob ownership/slicing semantics, the two
// VectorStorage implementations, backend-name parsing, and the
// RESINFER_STORAGE process default. The scan-level guarantees (bit-identical
// results across backends) live in tests/index/storage_parity_test.cc; this
// file pins the byte-level contracts those tests build on.
#include "storage/storage.h"

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/aligned_buffer.h"

namespace resinfer::storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: ctest -j runs each case (and its label twin) in
    // its own process, and a shared directory would let one case's
    // TearDown delete another's files mid-test.
    dir_ = std::filesystem::temp_directory_path() /
           ("resinfer_storage_test_" +
            std::to_string(static_cast<long long>(::getpid())));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::string WriteFile(const std::string& name,
                        const std::vector<uint8_t>& bytes) {
    const std::string path = Path(name);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  std::filesystem::path dir_;
};

bool Is64Aligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % kCacheLineBytes == 0;
}

TEST_F(StorageTest, DefaultBlobIsEmpty) {
  Blob blob;
  EXPECT_TRUE(blob.empty());
  EXPECT_EQ(blob.size(), 0);
  EXPECT_EQ(blob.data(), nullptr);
  EXPECT_FALSE(blob.unique());
  EXPECT_FALSE(blob.SharesOwnerWith(blob));  // no owner to share
}

TEST_F(StorageTest, AllocateAlignedZeroesAndAligns) {
  uint8_t* mutable_data = nullptr;
  Blob blob = Blob::AllocateAligned(100, &mutable_data);
  ASSERT_EQ(blob.size(), 100);
  ASSERT_NE(mutable_data, nullptr);
  EXPECT_EQ(mutable_data, blob.data());
  EXPECT_TRUE(Is64Aligned(blob.data()));
  for (int64_t i = 0; i < blob.size(); ++i) {
    EXPECT_EQ(blob.data()[i], 0) << i;
  }
  // The mutable window: writes land in the blob while the handle is unique.
  EXPECT_TRUE(blob.unique());
  mutable_data[7] = 42;
  EXPECT_EQ(blob.data()[7], 42);
  Blob second = blob;
  EXPECT_FALSE(blob.unique());
  EXPECT_TRUE(blob.SharesOwnerWith(second));
}

TEST_F(StorageTest, CopyOfIsIndependentOfTheSource) {
  std::vector<uint8_t> source = {1, 2, 3, 4, 5};
  Blob blob = Blob::CopyOf(source.data(), 5);
  source.assign(5, 0xff);
  ASSERT_EQ(blob.size(), 5);
  EXPECT_TRUE(Is64Aligned(blob.data()));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(blob.data()[i], i + 1);
  }
}

TEST_F(StorageTest, TakeVectorAdoptsWithoutCopying) {
  std::vector<uint8_t> bytes = {9, 8, 7};
  const uint8_t* original = bytes.data();
  Blob blob = Blob::TakeVector(std::move(bytes));
  ASSERT_EQ(blob.size(), 3);
  // The vector's own allocation backs the blob — no bytes moved.
  EXPECT_EQ(blob.data(), original);
}

TEST_F(StorageTest, SliceIsZeroCopyAndSharesTheOwner) {
  Blob blob = Blob::CopyOf("abcdefgh", 8);
  Blob slice = blob.Slice(2, 4);
  ASSERT_EQ(slice.size(), 4);
  EXPECT_EQ(slice.data(), blob.data() + 2);
  EXPECT_TRUE(slice.SharesOwnerWith(blob));
  // A slice keeps the backing alive after the original handle drops.
  blob = Blob();
  EXPECT_EQ(std::memcmp(slice.data(), "cdef", 4), 0);
  // Zero-length slices are empty blobs with no owner to pin.
  EXPECT_TRUE(slice.Slice(1, 0).empty());
}

TEST_F(StorageTest, MemoryStorageFetchesSharedSlices) {
  Blob bytes = Blob::CopyOf("0123456789", 10);
  const uint8_t* base = bytes.data();
  MemoryStorage storage(std::move(bytes));
  EXPECT_EQ(storage.backend(), StorageBackend::kMemory);
  EXPECT_EQ(storage.size_bytes(), 10);
  EXPECT_EQ(storage.name(), "memory(10 bytes)");

  Blob fetched;
  util::Status s = storage.Fetch(3, 4, &fetched);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(fetched.data(), base + 3);
  EXPECT_EQ(fetched.size(), 4);

  // Offsets come from file headers: out-of-range is a recoverable error.
  EXPECT_EQ(storage.Fetch(8, 4, &fetched).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(storage.Fetch(-1, 2, &fetched).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(storage.Fetch(0, -2, &fetched).code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, MapFileReadOnlyServesFileBytes) {
  std::vector<uint8_t> content(130);
  for (std::size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i);
  }
  const std::string path = WriteFile("blob.bin", content);

  Blob mapping;
  util::Status s = MapFileReadOnly(path, &mapping);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(mapping.size(), static_cast<int64_t>(content.size()));
  EXPECT_EQ(std::memcmp(mapping.data(), content.data(), content.size()), 0);
  // mmap returns page-aligned addresses, which are 64-byte aligned a
  // fortiori — the property the v6 code-section alignment builds on.
  EXPECT_TRUE(Is64Aligned(mapping.data()));

  EXPECT_EQ(MapFileReadOnly(Path("missing.bin"), &mapping).code(),
            util::StatusCode::kNotFound);

  Blob empty;
  ASSERT_TRUE(MapFileReadOnly(WriteFile("empty.bin", {}), &empty).ok());
  EXPECT_TRUE(empty.empty());
}

TEST_F(StorageTest, MmapFileStorageFetchOutlivesTheStorageObject) {
  const std::string path = WriteFile("store.bin", {10, 20, 30, 40, 50});
  Blob fetched;
  {
    auto opened = MmapFileStorage::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::shared_ptr<MmapFileStorage> storage = std::move(opened).value();
    EXPECT_EQ(storage->backend(), StorageBackend::kMmap);
    EXPECT_EQ(storage->size_bytes(), 5);
    EXPECT_EQ(storage->path(), path);
    EXPECT_EQ(storage->name(), "mmap(" + path + ")");
    util::Status s = storage->Fetch(1, 3, &fetched);
    ASSERT_TRUE(s.ok()) << s.ToString();
    Blob overrun;
    EXPECT_EQ(storage->Fetch(3, 3, &overrun).code(),
              util::StatusCode::kInvalidArgument);
  }
  // The fetched blob pins the mapping; dropping the storage object must not
  // unmap under a dispatched scan.
  ASSERT_EQ(fetched.size(), 3);
  EXPECT_EQ(fetched.data()[0], 20);
  EXPECT_EQ(fetched.data()[2], 40);

  EXPECT_FALSE(MmapFileStorage::Open(Path("missing.bin")).ok());
}

TEST_F(StorageTest, ParseStorageBackendAcceptsKnownSpellings) {
  StorageBackend backend = StorageBackend::kMmap;
  EXPECT_TRUE(ParseStorageBackend("memory", &backend).ok());
  EXPECT_EQ(backend, StorageBackend::kMemory);
  EXPECT_TRUE(ParseStorageBackend("MMAP", &backend).ok());
  EXPECT_EQ(backend, StorageBackend::kMmap);
  EXPECT_TRUE(ParseStorageBackend("Mem", &backend).ok());
  EXPECT_EQ(backend, StorageBackend::kMemory);
  EXPECT_TRUE(ParseStorageBackend("heap", &backend).ok());
  EXPECT_EQ(backend, StorageBackend::kMemory);

  util::Status s = ParseStorageBackend("disk", &backend);
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("memory|mmap"), std::string::npos);
  EXPECT_EQ(StorageBackendName(StorageBackend::kMemory),
            std::string("memory"));
  EXPECT_EQ(StorageBackendName(StorageBackend::kMmap), std::string("mmap"));
}

TEST_F(StorageTest, DefaultStorageBackendFollowsTheEnvironment) {
  const char* saved = std::getenv("RESINFER_STORAGE");
  const std::string restore = saved != nullptr ? saved : "";

  ::unsetenv("RESINFER_STORAGE");
  EXPECT_EQ(DefaultStorageBackend(), StorageBackend::kMemory);
  ::setenv("RESINFER_STORAGE", "mmap", 1);
  EXPECT_EQ(DefaultStorageBackend(), StorageBackend::kMmap);
  ::setenv("RESINFER_STORAGE", "memory", 1);
  EXPECT_EQ(DefaultStorageBackend(), StorageBackend::kMemory);
  // Junk degrades to the safe default instead of aborting a server.
  ::setenv("RESINFER_STORAGE", "floppy", 1);
  EXPECT_EQ(DefaultStorageBackend(), StorageBackend::kMemory);

  if (saved != nullptr) {
    ::setenv("RESINFER_STORAGE", restore.c_str(), 1);
  } else {
    ::unsetenv("RESINFER_STORAGE");
  }
}

}  // namespace
}  // namespace resinfer::storage

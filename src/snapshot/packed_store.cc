#include "snapshot/packed_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <list>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "snapshot/binio.h"
#include "snapshot/snapshot.h"

namespace oodbsec::snapshot {

namespace {

constexpr uint64_t kPackHeaderSize = 32;
constexpr uint64_t kRecordHeaderSize = 16;  // key u64 + entry length u64
constexpr uint64_t kIndexEntrySize = 40;
constexpr uint64_t kTrailerSize = 32;

common::Status PackError(std::string_view path, std::string_view what) {
  return common::FailedPreconditionError(
      common::StrCat("pack ", path, ": ", what));
}

// A live record as the in-memory index sees it: the far pointer
// (segment offset + entry length) plus the header fields Find needs
// before touching the record bytes.
struct IndexEntry {
  uint64_t offset = 0;       // of the record header (the key u64)
  uint64_t length = 0;       // entry bytes, excl. record header and pad
  uint64_t fingerprint = 0;  // schema generation stamp
  uint64_t checksum = 0;     // FNV-1a of the entry payload

  // On-disk footprint of the whole record including header and pad.
  uint64_t Footprint() const {
    return AlignUp8(kRecordHeaderSize + length);
  }
};

using PackIndex = std::map<uint64_t, IndexEntry>;  // key-sorted

// ---- segment parsing ---------------------------------------------------

// Validates one record header + entry at `offset` of `file`. Fills
// `out` and returns true when the record is intact (magic, version,
// byte order, checksum); the scan recovery path stops at the first
// false.
bool ParseRecordAt(std::string_view file, uint64_t offset, uint64_t* key_out,
                   IndexEntry* out) {
  if (offset + kRecordHeaderSize > file.size()) return false;
  uint64_t key = LoadU64(file.data() + offset);
  uint64_t length = LoadU64(file.data() + offset + 8);
  if (length < kEntryHeaderSize ||
      length > file.size() - offset - kRecordHeaderSize) {
    return false;
  }
  std::string_view entry = file.substr(offset + kRecordHeaderSize, length);
  if (entry.substr(0, kMagic.size()) != kMagic) return false;
  if (LoadU32(entry.data() + 8) != kFormatVersion) return false;
  if (LoadU32(entry.data() + 12) != kByteOrderMark) return false;
  uint64_t checksum = LoadU64(entry.data() + 24);
  if (Fnv1a64(entry.substr(kEntryHeaderSize)) != checksum) return false;
  *key_out = key;
  out->offset = offset;
  out->length = length;
  out->fingerprint = LoadU64(entry.data() + 16);
  out->checksum = checksum;
  return true;
}

// Rebuilds the index by scanning self-delimiting records from the top,
// stopping at the first record that fails validation — the recovery
// path for truncated segments and torn footers. Later records win for
// a duplicated key (appends supersede).
void ScanRecords(std::string_view file, PackIndex* index,
                 uint64_t* records_end) {
  index->clear();
  uint64_t offset = kPackHeaderSize;
  while (true) {
    uint64_t key = 0;
    IndexEntry entry;
    if (!ParseRecordAt(file, offset, &key, &entry)) break;
    (*index)[key] = entry;
    offset = AlignUp8(offset + kRecordHeaderSize + entry.length);
  }
  *records_end = offset;
}

// Loads the footer index when the trailer is intact and internally
// consistent; falls back to the record scan otherwise. Returns whether
// the trailer was used (informational).
bool LoadIndex(std::string_view file, PackIndex* index,
               uint64_t* records_end) {
  if (file.size() >= kPackHeaderSize + kTrailerSize) {
    std::string_view trailer = file.substr(file.size() - kTrailerSize);
    if (trailer.substr(24) == kPackIndexMagic) {
      uint64_t index_offset = LoadU64(trailer.data());
      uint64_t count = LoadU64(trailer.data() + 8);
      uint64_t index_checksum = LoadU64(trailer.data() + 16);
      uint64_t index_bytes = count * kIndexEntrySize;
      if (index_offset >= kPackHeaderSize && index_offset % 8 == 0 &&
          index_offset + index_bytes + kTrailerSize == file.size() &&
          Fnv1a64(file.substr(index_offset, index_bytes)) == index_checksum) {
        PackIndex loaded;
        bool consistent = true;
        for (uint64_t i = 0; i < count; ++i) {
          const char* p = file.data() + index_offset + i * kIndexEntrySize;
          uint64_t key = LoadU64(p);
          IndexEntry entry;
          entry.offset = LoadU64(p + 8);
          entry.length = LoadU64(p + 16);
          entry.fingerprint = LoadU64(p + 24);
          entry.checksum = LoadU64(p + 32);
          // Far pointers must land on an intact record inside the
          // record region; a stale trailer surviving a torn append is
          // caught here (or by the checksum above) and falls back.
          if (entry.offset % 8 != 0 || entry.offset < kPackHeaderSize ||
              entry.length < kEntryHeaderSize ||
              entry.offset + kRecordHeaderSize + entry.length >
                  index_offset ||
              file.substr(entry.offset + kRecordHeaderSize, kMagic.size()) !=
                  kMagic) {
            consistent = false;
            break;
          }
          loaded[key] = entry;
        }
        if (consistent) {
          *index = std::move(loaded);
          *records_end = index_offset;
          return true;
        }
      }
    }
  }
  ScanRecords(file, index, records_end);
  return false;
}

// ---- the store ---------------------------------------------------------

class PackedStore final : public SnapshotStore {
 public:
  PackedStore(std::string path, size_t page_cache_capacity)
      : path_(std::move(path)),
        page_cache_capacity_(page_cache_capacity == 0 ? 1
                                                      : page_cache_capacity) {}

  ~PackedStore() override { CloseFile(); }

  // Opens or creates the segment; recovers from torn footers. Called
  // once by the factory before the store is shared.
  common::Status OpenFile() {
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) {
      return common::InternalError(
          common::StrCat("pack ", path_, ": cannot open"));
    }
    uint64_t size = FileSize();
    if (size == 0) {
      ByteWriter header;
      header.PutFixedString(kPackMagic);
      header.PutU32(kPackVersion);
      header.PutU32(kByteOrderMark);
      header.PutU64(0);  // reserved
      header.PutU64(0);  // reserved (pads the header to kPackHeaderSize)
      if (!PwriteAll(header.buffer(), 0)) {
        return common::InternalError(
            common::StrCat("pack ", path_, ": cannot write header"));
      }
      records_end_ = kPackHeaderSize;
      common::Status status = WriteFooterLocked();
      if (!status.ok()) return status;
      return Remap();
    }
    common::Status status = Remap();
    if (!status.ok()) return status;
    std::string_view file(map_, map_len_);
    if (file.size() < kPackHeaderSize ||
        file.substr(0, kPackMagic.size()) != kPackMagic) {
      return PackError(path_, "not a pack file");
    }
    uint32_t version = LoadU32(file.data() + 8);
    uint32_t marker = LoadU32(file.data() + 12);
    if (marker == Bswap32(kByteOrderMark)) {
      return PackError(path_,
                       "foreign-endian pack (packs are machine-local; "
                       "regenerate or migrate on this machine)");
    }
    if (marker != kByteOrderMark) {
      return PackError(path_, "corrupt byte-order marker");
    }
    if (version != kPackVersion) {
      return PackError(path_, common::StrCat("pack version ", version,
                                             " (expected ", kPackVersion,
                                             ")"));
    }
    LoadIndex(file, &index_, &records_end_);
    // Rewrite a clean footer: after a recovery this truncates the torn
    // tail; after a clean open it rewrites identical bytes.
    status = WriteFooterLocked();
    if (!status.ok()) return status;
    return Remap();
  }

  common::Result<std::shared_ptr<const core::CachedAnalysis>> Find(
      const schema::Schema& schema, const core::ClosureOptions& options,
      const std::vector<std::string>& roots, obs::Observability* obs) override {
    uint64_t fingerprint = SchemaFingerprint(schema, options);
    uint64_t key = SnapshotKeyHash(options, roots);
    std::unique_lock<std::mutex> lock(mu_);
    ++finds_;
    last_fingerprint_ = fingerprint;
    has_fingerprint_ = true;
    auto it = index_.find(key);
    if (it == index_.end()) {
      return common::NotFoundError(
          common::StrCat("pack ", path_, ": no record for signature"));
    }
    if (it->second.fingerprint != fingerprint) {
      return PackError(path_, "schema fingerprint mismatch (stale generation)");
    }
    if (std::shared_ptr<const core::CachedAnalysis> hot =
            PageLookupLocked(key, fingerprint, roots)) {
      ++page_hits_;
      return hot;
    }
    ++page_misses_;
    auto decoded = DecodeLocked(it->second, schema, options, obs);
    if (!decoded.ok()) return decoded;
    if (decoded.value()->roots != roots) {
      // Keys hash (options, roots); on the vanishingly unlikely
      // collision the stored root list differs — report a miss.
      return common::NotFoundError(
          common::StrCat("pack ", path_, ": signature collision"));
    }
    PageInsertLocked(key, fingerprint, decoded.value());
    return decoded;
  }

  common::Status Save(const schema::Schema& schema,
                      const core::ClosureOptions& options,
                      const core::CachedAnalysis& entry) override {
    if (entry.closure == nullptr || entry.set == nullptr) {
      return common::InvalidArgumentError("pack: entry has no closure");
    }
    uint64_t key = SnapshotKeyHash(options, entry.roots);
    std::string bytes = BuildEntryBytes(schema, options, entry);
    uint64_t fingerprint = LoadU64(bytes.data() + 16);
    uint64_t checksum = LoadU64(bytes.data() + 24);
    std::lock_guard<std::mutex> lock(mu_);
    ++saves_;
    last_fingerprint_ = fingerprint;
    has_fingerprint_ = true;
    auto it = index_.find(key);
    if (it != index_.end() && it->second.fingerprint == fingerprint &&
        it->second.checksum == checksum && it->second.length == bytes.size()) {
      // Identical record already live: warm re-saves (every restarted
      // fleet run ends with a bulk save) must not grow the segment.
      return common::Status::Ok();
    }
    common::Status status = AppendRawLocked(key, bytes, fingerprint, checksum);
    if (!status.ok()) return status;
    status = WriteFooterLocked();
    if (!status.ok()) return status;
    return Remap();
  }

  common::Result<StoreSweepStats> Sweep(uint64_t live_fingerprint) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++sweeps_;
    last_fingerprint_ = live_fingerprint;
    has_fingerprint_ = true;
    StoreSweepStats out;
    uint64_t live_footprint = kPackHeaderSize;
    for (const auto& [key, entry] : index_) {
      if (entry.fingerprint == live_fingerprint) {
        ++out.records_kept;
        live_footprint += entry.Footprint();
      } else {
        ++out.records_swept;
      }
    }
    // Dead bytes: superseded duplicates not reachable from the index.
    bool has_dead =
        SumFootprintLocked() + kPackHeaderSize != records_end_;
    if (out.records_swept == 0 && !has_dead) return out;  // nothing to do

    // Online compaction: rewrite the live generation into a fresh
    // segment, key order, and swap it in atomically.
    uint64_t old_size = FileSize();
    std::string fresh;
    fresh.reserve(live_footprint + index_.size() * kIndexEntrySize +
                  kTrailerSize);
    {
      ByteWriter header;
      header.PutFixedString(kPackMagic);
      header.PutU32(kPackVersion);
      header.PutU32(kByteOrderMark);
      header.PutU64(0);  // reserved
      header.PutU64(0);  // reserved (pads the header to kPackHeaderSize)
      fresh = header.Release();
    }
    PackIndex compacted;
    for (const auto& [key, entry] : index_) {
      if (entry.fingerprint != live_fingerprint) continue;
      IndexEntry moved = entry;
      moved.offset = fresh.size();
      ByteWriter record_header;
      record_header.PutU64(key);
      record_header.PutU64(entry.length);
      fresh += record_header.buffer();
      fresh.append(map_ + entry.offset + kRecordHeaderSize, entry.length);
      fresh.resize(AlignUp8(fresh.size()), '\0');
      compacted[key] = moved;
    }
    uint64_t new_records_end = fresh.size();
    ByteWriter index_writer;
    for (const auto& [key, entry] : compacted) {
      index_writer.PutU64(key);
      index_writer.PutU64(entry.offset);
      index_writer.PutU64(entry.length);
      index_writer.PutU64(entry.fingerprint);
      index_writer.PutU64(entry.checksum);
    }
    ByteWriter trailer;
    trailer.PutU64(new_records_end);
    trailer.PutU64(compacted.size());
    trailer.PutU64(Fnv1a64(index_writer.buffer()));
    trailer.PutFixedString(kPackIndexMagic);
    fresh += index_writer.buffer();
    fresh += trailer.buffer();

    std::string tmp = common::StrCat(path_, ".compact.tmp.", ::getpid());
    {
      int tmp_fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (tmp_fd < 0) {
        return common::InternalError(
            common::StrCat("pack ", path_, ": cannot open compaction temp"));
      }
      size_t written = 0;
      while (written < fresh.size()) {
        ssize_t n = ::write(tmp_fd, fresh.data() + written,
                            fresh.size() - written);
        if (n <= 0) {
          ::close(tmp_fd);
          ::unlink(tmp.c_str());
          return common::InternalError(
              common::StrCat("pack ", path_, ": compaction write failed"));
        }
        written += static_cast<size_t>(n);
      }
      ::fsync(tmp_fd);
      ::close(tmp_fd);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path_, ec);
    if (ec) {
      std::filesystem::remove(tmp, ec);
      return common::InternalError(
          common::StrCat("pack ", path_, ": compaction rename failed"));
    }
    CloseFile();
    fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
    if (fd_ < 0) {
      return common::InternalError(
          common::StrCat("pack ", path_, ": cannot reopen after compaction"));
    }
    index_ = std::move(compacted);
    records_end_ = new_records_end;
    common::Status status = Remap();
    if (!status.ok()) return status;
    out.bytes_reclaimed = old_size - fresh.size();
    // Swept generations also leave the page cache.
    for (auto it = pages_.begin(); it != pages_.end();) {
      if (it->second.fingerprint != live_fingerprint) {
        page_lru_.erase(it->second.lru_it);
        it = pages_.erase(it);
      } else {
        ++it;
      }
    }
    return out;
  }

  StoreStats Stats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    StoreStats stats;
    stats.description = common::StrCat("packed:", path_);
    stats.entries = index_.size();
    stats.file_bytes = FileSize();
    uint64_t indexed = 0;
    for (const auto& [key, entry] : index_) {
      indexed += entry.Footprint();
      if (!has_fingerprint_ || entry.fingerprint == last_fingerprint_) {
        stats.live_bytes += entry.Footprint();
      }
    }
    // Stale = dead record bytes (superseded appends) plus live-index
    // records from a swept-out generation.
    stats.stale_bytes =
        (records_end_ - kPackHeaderSize - indexed) +
        (indexed - stats.live_bytes);
    stats.finds = finds_;
    stats.saves = saves_;
    stats.sweeps = sweeps_;
    stats.page_cache_hits = page_hits_;
    stats.page_cache_misses = page_misses_;
    stats.page_cache_evictions = page_evictions_;
    return stats;
  }

  std::vector<std::shared_ptr<const core::CachedAnalysis>> LoadAll(
      const schema::Schema& schema, const core::ClosureOptions& options,
      size_t limit, size_t* invalid, obs::Observability* obs) override {
    uint64_t fingerprint = SchemaFingerprint(schema, options);
    std::vector<std::shared_ptr<const core::CachedAnalysis>> entries;
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_fingerprint_ = fingerprint;
      has_fingerprint_ = true;
      for (const auto& [key, meta] : index_) {  // key order: deterministic
        if (entries.size() >= limit) break;
        if (meta.fingerprint != fingerprint) {
          if (invalid != nullptr) ++*invalid;
          continue;
        }
        auto decoded = DecodeLocked(meta, schema, options, obs);
        if (!decoded.ok()) {
          if (invalid != nullptr) ++*invalid;
          continue;
        }
        PageInsertLocked(key, fingerprint, decoded.value());
        entries.push_back(std::move(decoded).value());
      }
    }
    return entries;
  }

 private:
  struct PageSlot {
    uint64_t fingerprint = 0;
    std::shared_ptr<const core::CachedAnalysis> entry;
    std::list<uint64_t>::iterator lru_it;
  };

  uint64_t FileSize() const {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return 0;
    return static_cast<uint64_t>(st.st_size);
  }

  bool PwriteAll(std::string_view bytes, uint64_t offset) {
    size_t written = 0;
    while (written < bytes.size()) {
      ssize_t n = ::pwrite(fd_, bytes.data() + written,
                           bytes.size() - written,
                           static_cast<off_t>(offset + written));
      if (n <= 0) return false;
      written += static_cast<size_t>(n);
    }
    return true;
  }

  void CloseFile() {
    if (map_ != nullptr) {
      ::munmap(map_, map_len_);
      map_ = nullptr;
      map_len_ = 0;
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  common::Status Remap() {
    if (map_ != nullptr) {
      ::munmap(map_, map_len_);
      map_ = nullptr;
      map_len_ = 0;
    }
    uint64_t size = FileSize();
    if (size == 0) return common::Status::Ok();
    void* mapped =
        ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd_, /*offset=*/0);
    if (mapped == MAP_FAILED) {
      return common::InternalError(
          common::StrCat("pack ", path_, ": mmap failed"));
    }
    map_ = static_cast<char*>(mapped);
    map_len_ = size;
    return common::Status::Ok();
  }

  // Appends one record at records_end_ (overwriting the old footer);
  // the caller rewrites the footer and remaps afterwards. Record
  // first, footer second: a torn append loses only this record.
  common::Status AppendRawLocked(uint64_t key, std::string_view entry_bytes,
                                 uint64_t fingerprint, uint64_t checksum) {
    uint64_t offset = records_end_;
    uint64_t footprint = AlignUp8(kRecordHeaderSize + entry_bytes.size());
    std::string record(footprint, '\0');
    uint64_t length = entry_bytes.size();
    std::memcpy(record.data(), &key, sizeof key);
    std::memcpy(record.data() + 8, &length, sizeof length);
    std::memcpy(record.data() + kRecordHeaderSize, entry_bytes.data(),
                entry_bytes.size());
    if (!PwriteAll(record, offset)) {
      return common::InternalError(
          common::StrCat("pack ", path_, ": append failed"));
    }
    records_end_ = offset + footprint;
    index_[key] = IndexEntry{offset, length, fingerprint, checksum};
    return common::Status::Ok();
  }

  common::Status WriteFooterLocked() {
    ByteWriter index_writer;
    for (const auto& [key, entry] : index_) {
      index_writer.PutU64(key);
      index_writer.PutU64(entry.offset);
      index_writer.PutU64(entry.length);
      index_writer.PutU64(entry.fingerprint);
      index_writer.PutU64(entry.checksum);
    }
    ByteWriter trailer;
    trailer.PutU64(records_end_);
    trailer.PutU64(index_.size());
    trailer.PutU64(Fnv1a64(index_writer.buffer()));
    trailer.PutFixedString(kPackIndexMagic);
    std::string footer = index_writer.Release() + trailer.buffer();
    if (!PwriteAll(footer, records_end_)) {
      return common::InternalError(
          common::StrCat("pack ", path_, ": footer write failed"));
    }
    // Drop stale tail bytes (an older, larger footer) so the trailer
    // is exactly at EOF, where LoadIndex looks for it.
    if (::ftruncate(fd_, static_cast<off_t>(records_end_ + footer.size())) !=
        0) {
      return common::InternalError(
          common::StrCat("pack ", path_, ": truncate failed"));
    }
    return common::Status::Ok();
  }

  uint64_t SumFootprintLocked() const {
    uint64_t sum = 0;
    for (const auto& [key, entry] : index_) sum += entry.Footprint();
    return sum;
  }

  common::Result<std::shared_ptr<const core::CachedAnalysis>> DecodeLocked(
      const IndexEntry& meta, const schema::Schema& schema,
      const core::ClosureOptions& options, obs::Observability* obs) {
    if (meta.offset + kRecordHeaderSize + meta.length > map_len_) {
      return common::InternalError(
          common::StrCat("pack ", path_, ": mapping out of date"));
    }
    std::string_view bytes(map_ + meta.offset + kRecordHeaderSize,
                           meta.length);
    return DecodeEntry(schema, options, path_, bytes, obs);
  }

  std::shared_ptr<const core::CachedAnalysis> PageLookupLocked(
      uint64_t key, uint64_t fingerprint,
      const std::vector<std::string>& roots) {
    auto it = pages_.find(key);
    if (it == pages_.end()) return nullptr;
    if (it->second.fingerprint != fingerprint ||
        it->second.entry->roots != roots) {
      return nullptr;  // stale generation or key collision: re-decode
    }
    page_lru_.splice(page_lru_.begin(), page_lru_, it->second.lru_it);
    return it->second.entry;
  }

  void PageInsertLocked(uint64_t key, uint64_t fingerprint,
                        std::shared_ptr<const core::CachedAnalysis> entry) {
    auto it = pages_.find(key);
    if (it != pages_.end()) {
      it->second.fingerprint = fingerprint;
      it->second.entry = std::move(entry);
      page_lru_.splice(page_lru_.begin(), page_lru_, it->second.lru_it);
      return;
    }
    if (pages_.size() >= page_cache_capacity_) {
      ++page_evictions_;
      pages_.erase(page_lru_.back());
      page_lru_.pop_back();
    }
    page_lru_.push_front(key);
    pages_.emplace(key,
                   PageSlot{fingerprint, std::move(entry), page_lru_.begin()});
  }

  const std::string path_;
  const size_t page_cache_capacity_;
  mutable std::mutex mu_;
  int fd_ = -1;
  char* map_ = nullptr;
  size_t map_len_ = 0;
  uint64_t records_end_ = kPackHeaderSize;
  PackIndex index_;

  // Decoded-closure LRU ("page cache"), keyed by signature.
  std::unordered_map<uint64_t, PageSlot> pages_;
  std::list<uint64_t> page_lru_;  // most recent at the front

  uint64_t finds_ = 0;
  uint64_t saves_ = 0;
  uint64_t sweeps_ = 0;
  uint64_t page_hits_ = 0;
  uint64_t page_misses_ = 0;
  uint64_t page_evictions_ = 0;
  // The generation Stats splits live/stale against: the fingerprint of
  // the last (schema, options) this store served.
  uint64_t last_fingerprint_ = 0;
  bool has_fingerprint_ = false;
};

}  // namespace

common::Result<std::shared_ptr<SnapshotStore>> OpenPackedStore(
    std::string path, size_t page_cache_capacity) {
  auto store =
      std::make_shared<PackedStore>(std::move(path), page_cache_capacity);
  common::Status status = store->OpenFile();
  if (!status.ok()) return status;
  return std::shared_ptr<SnapshotStore>(std::move(store));
}

}  // namespace oodbsec::snapshot

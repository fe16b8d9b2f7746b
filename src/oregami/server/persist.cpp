#include "oregami/server/persist.hpp"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_set>
#include <utility>
#include <vector>

#include "oregami/server/telemetry.hpp"
#include "oregami/support/failpoint.hpp"
#include "oregami/support/hash.hpp"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace oregami::server {

namespace {

constexpr char kFileMagic[8] = {'O', 'R', 'E', 'G', 'C', 'A', 'C', 'H'};
constexpr std::uint32_t kRecordMagic = 0x4345524FU;  // "OREC" in LE bytes
/// An absurdly-large payload length can only be corruption; rejecting
/// it keeps recovery from trusting a bit-flipped length field.
constexpr std::uint32_t kMaxPayload = 64U << 20;
constexpr std::uint32_t kMaxTasks = 1U << 24;
constexpr std::size_t kRecordHeaderSize = 16;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

/// Bounds-checked little-endian reader over a payload; every accessor
/// fails sticky so decode ends with one ok check + exact-length check.
struct Reader {
  const std::string& data;
  std::size_t pos = 0;
  bool ok = true;

  std::uint32_t u32() {
    if (!ok || data.size() - pos < 4) {
      ok = false;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data[pos + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos += 4;
    return v;
  }

  std::uint64_t u64() {
    if (!ok || data.size() - pos < 8) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data[pos + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos += 8;
    return v;
  }

  std::string str() {
    const std::uint32_t n = u32();
    if (!ok || n > kMaxPayload || data.size() - pos < n) {
      ok = false;
      return {};
    }
    std::string s = data.substr(pos, n);
    pos += n;
    return s;
  }
};

std::uint64_t payload_checksum(const std::string& payload) {
  Fnv1a h;
  h.bytes(payload.data(), payload.size());
  return h.digest();
}

/// Reads the 16-byte record header at `at`; false when the bytes there
/// cannot be the start of a record.
bool read_record_header(const std::string& data, std::size_t at,
                        std::uint32_t& len, std::uint64_t& checksum) {
  if (data.size() - at < kRecordHeaderSize) {
    return false;
  }
  Reader r{data, at};
  const std::uint32_t magic = r.u32();
  len = r.u32();
  checksum = r.u64();
  return r.ok && magic == kRecordMagic && len <= kMaxPayload;
}

/// The byte pattern of the record magic, for the resync scan.
std::string record_magic_bytes() {
  std::string m;
  put_u32(m, kRecordMagic);
  return m;
}

}  // namespace

std::string RecoveryStats::to_string() const {
  if (missing) {
    return "no cache file yet (cold boot)";
  }
  if (version_skew) {
    return "ignoring cache file (unrecognized or version-skewed header); "
           "starting cold";
  }
  std::string out = "restored " + std::to_string(restored) + " entr" +
                    (restored == 1 ? "y" : "ies") + ", skipped " +
                    std::to_string(skipped) + " invalid record" +
                    (skipped == 1 ? "" : "s");
  if (duplicates > 0) {
    out += ", " + std::to_string(duplicates) + " superseded duplicate" +
           (duplicates == 1 ? "" : "s");
  }
  return out;
}

std::string encode_record(std::uint64_t digest,
                          const CachedOutcome& outcome) {
  std::string payload;
  payload.reserve(64 + outcome.proc_of_task.size() * 4 +
                  outcome.error.size() + outcome.strategy.size());
  put_u64(payload, digest);
  payload += static_cast<char>(outcome.ok ? 1 : 0);
  put_u32(payload, static_cast<std::uint32_t>(outcome.error_code));
  put_str(payload, outcome.error);
  put_str(payload, outcome.strategy);
  put_u64(payload, static_cast<std::uint64_t>(outcome.completion));
  put_u64(payload, static_cast<std::uint64_t>(outcome.external_ipc));
  put_u64(payload, static_cast<std::uint64_t>(outcome.max_load));
  put_u32(payload, static_cast<std::uint32_t>(outcome.num_procs));
  put_u32(payload, static_cast<std::uint32_t>(outcome.proc_of_task.size()));
  for (const int p : outcome.proc_of_task) {
    put_u32(payload, static_cast<std::uint32_t>(p));
  }

  std::string record;
  record.reserve(kRecordHeaderSize + payload.size());
  put_u32(record, kRecordMagic);
  put_u32(record, static_cast<std::uint32_t>(payload.size()));
  put_u64(record, payload_checksum(payload));
  record += payload;
  return record;
}

std::string encode_header() {
  std::string header(kFileMagic, sizeof(kFileMagic));
  put_u32(header, kPersistFormatVersion);
  put_u32(header, static_cast<std::uint32_t>(kDigestVersion));
  return header;
}

bool decode_record_payload(const std::string& payload,
                           std::uint64_t& digest, CachedOutcome& outcome) {
  Reader r{payload, 0};
  digest = r.u64();
  if (!r.ok || r.data.size() - r.pos < 1) {
    return false;
  }
  const unsigned char ok_byte =
      static_cast<unsigned char>(payload[r.pos++]);
  if (ok_byte > 1) {
    return false;
  }
  outcome.ok = ok_byte == 1;
  outcome.error_code = static_cast<int>(r.u32());
  outcome.error = r.str();
  outcome.strategy = r.str();
  outcome.completion = static_cast<std::int64_t>(r.u64());
  outcome.external_ipc = static_cast<std::int64_t>(r.u64());
  outcome.max_load = static_cast<std::int64_t>(r.u64());
  outcome.num_procs = static_cast<int>(r.u32());
  const std::uint32_t tasks = r.u32();
  if (!r.ok || tasks > kMaxTasks) {
    return false;
  }
  outcome.proc_of_task.clear();
  outcome.proc_of_task.reserve(tasks);
  for (std::uint32_t i = 0; i < tasks; ++i) {
    outcome.proc_of_task.push_back(static_cast<int>(r.u32()));
  }
  // Bit-exact means the payload ends exactly where the decode does.
  return r.ok && r.pos == payload.size();
}

RecoveryStats recover_cache_file(const std::string& path,
                                 ResultCache& cache) {
  RecoveryStats stats;
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      stats.missing = true;
      return stats;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    data = buffer.str();
  }
  if (data.empty()) {
    return stats;  // created-but-unwritten file: cold, nothing skipped
  }
  const std::string header = encode_header();
  if (data.size() < header.size() ||
      data.compare(0, sizeof(kFileMagic), kFileMagic,
                   sizeof(kFileMagic)) != 0) {
    stats.version_skew = true;
    return stats;
  }
  if (data.compare(0, header.size(), header) != 0) {
    // Right magic, wrong format or digest version: the records may be
    // from the future (or keyed by incompatible digest rules); skip
    // the whole file rather than guess.
    stats.version_skew = true;
    return stats;
  }

  const std::string magic = record_magic_bytes();
  std::unordered_set<std::uint64_t> seen;
  std::size_t pos = header.size();
  std::int64_t record_index = 0;
  while (pos < data.size()) {
    ++record_index;
    // The persistence *load* failpoint models a read error mid-file:
    // recovery stops at the failure and serves what it validated.
    if (failpoint::evaluate("persist.load", record_index).action !=
        failpoint::Action::None) {
      break;
    }
    std::uint32_t len = 0;
    std::uint64_t checksum = 0;
    const bool header_ok = read_record_header(data, pos, len, checksum);
    if (header_ok && data.size() - pos - kRecordHeaderSize >= len) {
      const std::string payload = data.substr(pos + kRecordHeaderSize, len);
      std::uint64_t digest = 0;
      CachedOutcome outcome;
      if (payload_checksum(payload) == checksum &&
          decode_record_payload(payload, digest, outcome)) {
        ++stats.records;
        if (!seen.insert(digest).second) {
          ++stats.duplicates;
        }
        cache.insert(digest,
                     std::make_shared<const CachedOutcome>(
                         std::move(outcome)));
        pos += kRecordHeaderSize + len;
        continue;
      }
      // Checksum or decode failure with a sane header: the length
      // field is plausibly intact, so skip exactly this record.
      ++stats.skipped;
      pos += kRecordHeaderSize + len;
      continue;
    }
    // Torn tail or garbage where a record should start: skip it and
    // resync by scanning for the next record magic.
    ++stats.skipped;
    const std::size_t next = data.find(magic, pos + 1);
    if (next == std::string::npos) {
      break;
    }
    pos = next;
  }
  stats.restored = static_cast<std::int64_t>(seen.size());
  return stats;
}

// ------------------------------------------------------- CacheJournal

CacheJournal::CacheJournal(std::string path, ResultCache& cache,
                           int compact_every)
    : path_(std::move(path)), cache_(cache), compact_every_(compact_every) {}

CacheJournal::~CacheJournal() {
  flush();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

RecoveryStats CacheJournal::open_and_recover() {
  RecoveryStats recovery = recover_cache_file(path_, cache_);
  if (metrics::enabled()) {
    ServerMetrics& sm = server_metrics();
    sm.recovery_restored.add(recovery.restored);
    sm.recovery_skipped.add(recovery.skipped);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  // Boot always rewrites a compacted snapshot: it creates the file on
  // first boot, sheds skipped garbage and duplicates after a crash,
  // and replaces a version-skewed file with the current format.
  if (!compact_locked()) {
    stats_.degraded = true;
  }
  return recovery;
}

void CacheJournal::book_locked(Event event) {
  ServerMetrics& sm = server_metrics();
  switch (event) {
    case Event::kAppend:
      ++stats_.appended;
      sm.persist_appends.increment();
      return;
    case Event::kCompaction:
      ++stats_.compactions;
      sm.persist_compactions.increment();
      return;
    case Event::kIoError:
      ++stats_.io_errors;
      sm.persist_io_errors.increment();
      return;
  }
}

bool CacheJournal::write_record_locked(const std::string& record) {
  if (file_ == nullptr || stats_.degraded) {
    return false;
  }
  const auto fp = failpoint::evaluate("persist.write");
  if (fp.action == failpoint::Action::Err) {
    book_locked(Event::kIoError);
    stats_.degraded = true;
    return false;
  }
  std::size_t to_write = record.size();
  if (fp.action == failpoint::Action::Short) {
    to_write /= 2;  // a torn record, as a crash mid-write leaves behind
  }
  const std::size_t written =
      std::fwrite(record.data(), 1, to_write, file_);
  std::fflush(file_);
  if (written != record.size()) {
    book_locked(Event::kIoError);
    stats_.degraded = true;
    return false;
  }
  return true;
}

bool CacheJournal::append(std::uint64_t digest,
                          const CachedOutcome& outcome) {
  const bool telemetry = metrics::enabled();
  const auto start = std::chrono::steady_clock::now();
  const std::string record = encode_record(digest, outcome);
  const std::lock_guard<std::mutex> lock(mutex_);
  const bool wrote = write_record_locked(record);
  if (wrote) {
    book_locked(Event::kAppend);
    if (compact_every_ > 0 && ++appends_since_compact_ >= compact_every_) {
      // Best-effort: a failed compaction keeps the (valid) journal.
      (void)compact_locked();
    }
  }
  if (telemetry) server_metrics().persist_append_us.record(elapsed_us(start));
  return wrote;
}

bool CacheJournal::compact_locked() {
  const bool telemetry = metrics::enabled();
  const auto start = std::chrono::steady_clock::now();
  const bool ok = compact_locked_impl();
  if (telemetry) server_metrics().persist_compact_us.record(elapsed_us(start));
  return ok;
}

bool CacheJournal::compact_locked_impl() {
  // Assemble the whole snapshot in memory and write it with one call,
  // so one persist.write failpoint evaluation covers one snapshot.
  std::string snapshot = encode_header();
  for (const auto& [digest, outcome] : cache_.snapshot_entries()) {
    snapshot += encode_record(digest, *outcome);
  }

  const std::string tmp = path_ + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    book_locked(Event::kIoError);
    return false;
  }
  const auto fp = failpoint::evaluate("persist.write");
  std::size_t to_write = snapshot.size();
  if (fp.action == failpoint::Action::Short) {
    to_write /= 2;
  }
  bool ok = fp.action != failpoint::Action::Err &&
            std::fwrite(snapshot.data(), 1, to_write, out) ==
                snapshot.size() &&
            std::fflush(out) == 0;
#if !defined(_WIN32)
  if (ok) {
    const bool fsync_ok =
        failpoint::evaluate("persist.fsync").action ==
            failpoint::Action::None &&
        ::fsync(fileno(out)) == 0;
    ok = fsync_ok;
  }
#endif
  std::fclose(out);
  if (!ok) {
    std::remove(tmp.c_str());
    book_locked(Event::kIoError);
    return false;
  }

  if (failpoint::evaluate("persist.rename").action !=
          failpoint::Action::None ||
      std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    book_locked(Event::kIoError);
    return false;
  }

  // Re-point the append handle at the new file.
  if (file_ != nullptr) {
    std::fclose(file_);
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    book_locked(Event::kIoError);
    stats_.degraded = true;
    return false;
  }
  book_locked(Event::kCompaction);
  appends_since_compact_ = 0;
  return true;
}

bool CacheJournal::compact() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return compact_locked();
}

void CacheJournal::flush() {
  const bool telemetry = metrics::enabled();
  const auto start = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) {
    return;
  }
  std::fflush(file_);
#if !defined(_WIN32)
  if (failpoint::evaluate("persist.fsync").action ==
      failpoint::Action::None) {
    (void)::fsync(fileno(file_));
  } else {
    book_locked(Event::kIoError);
  }
#endif
  if (telemetry) server_metrics().persist_fsync_us.record(elapsed_us(start));
}

PersistStats CacheJournal::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace oregami::server

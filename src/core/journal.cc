#include "core/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/crc32.h"
#include "common/logging.h"
#include "core/health_monitor.h"
#include "core/persistence.h"

namespace dfi {
namespace {

void put_u32(std::string& out, std::uint32_t v) {
  out += static_cast<char>(v & 0xff);
  out += static_cast<char>((v >> 8) & 0xff);
  out += static_cast<char>((v >> 16) & 0xff);
  out += static_cast<char>((v >> 24) & 0xff);
}

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

Status malformed(const std::string& what) {
  return Status::Fail(ErrorCode::kMalformed, "journal: " + what);
}

// Parse "key=value" where the value is a decimal u64.
bool parse_kv_u64(const std::string& field, const std::string& key,
                  std::uint64_t& out) {
  const std::string prefix = key + "=";
  if (field.rfind(prefix, 0) != 0) return false;
  try {
    out = std::stoull(field.substr(prefix.size()));
  } catch (...) {
    return false;
  }
  return true;
}

}  // namespace

// --------------------------------------------------- InMemoryJournalStore

bool InMemoryJournalStore::crash_fires() {
  if (!crash_.armed) return false;
  if (crash_.ops_remaining > 0) {
    --crash_.ops_remaining;
    return false;
  }
  crash_.armed = false;  // the process dies once
  return true;
}

void InMemoryJournalStore::append(const std::uint8_t* data, std::size_t size) {
  if (crash_fires()) {
    // Torn write: only a prefix of the record reaches the platters.
    const auto kept = static_cast<std::size_t>(
        static_cast<double>(size) * std::clamp(crash_.tear_fraction, 0.0, 1.0));
    live_.insert(live_.end(), data, data + kept);
    throw CrashException{};
  }
  live_.insert(live_.end(), data, data + size);
}

void InMemoryJournalStore::sync() {
  if (crash_fires()) throw CrashException{};
}

void InMemoryJournalStore::truncate(std::size_t size) {
  if (size < live_.size()) live_.resize(size);
}

void InMemoryJournalStore::begin_rewrite() { rewrite_.emplace(); }

void InMemoryJournalStore::append_rewrite(const std::uint8_t* data,
                                          std::size_t size) {
  if (!rewrite_.has_value()) rewrite_.emplace();
  if (crash_fires()) {
    // The staged image dies with the process; the live image is untouched.
    rewrite_.reset();
    throw CrashException{};
  }
  rewrite_->insert(rewrite_->end(), data, data + size);
}

void InMemoryJournalStore::commit_rewrite() {
  if (!rewrite_.has_value()) return;
  if (crash_fires()) {
    // The atomic-swap race: the rename either happened or it did not.
    if (crash_.commit_survives) live_ = std::move(*rewrite_);
    rewrite_.reset();
    throw CrashException{};
  }
  live_ = std::move(*rewrite_);
  rewrite_.reset();
}

// ------------------------------------------------------- FileJournalStore

FileJournalStore::FileJournalStore(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    DFI_WARN << "journal: cannot open " << path_;
  }
}

FileJournalStore::~FileJournalStore() {
  if (fd_ >= 0) ::close(fd_);
  if (rewrite_fd_ >= 0) ::close(rewrite_fd_);
  // Balance an open degraded window: the store's failure condition dies
  // with it, and the monitor's refcount must not leak.
  if (io_degraded_ && health_ != nullptr) health_->exit_degraded("journal-io");
}

void FileJournalStore::attach_health(HealthMonitor* health) {
  if (health == nullptr && io_degraded_ && health_ != nullptr) {
    health_->exit_degraded("journal-io");
    io_degraded_ = false;
  }
  health_ = health;
}

void FileJournalStore::io_failure(const char* what) {
  ++io_failures_;
  DFI_WARN << "journal: " << what << " failed on " << path_;
  if (io_degraded_) return;
  io_degraded_ = true;
  // Fail-secure: a durability barrier that is failing means decisions made
  // against this database must not be trusted — hold a degraded window
  // until a durable operation fully succeeds again.
  if (health_ != nullptr) health_->enter_degraded("journal-io");
}

void FileJournalStore::io_recovered() {
  if (!io_degraded_) return;
  io_degraded_ = false;
  if (health_ != nullptr) health_->exit_degraded("journal-io");
}

bool FileJournalStore::sync_parent_dir() {
  const auto slash = path_.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path_.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0) return false;
  const bool ok = ::fsync(dfd) == 0;
  ::close(dfd);
  return ok;
}

void FileJournalStore::append(const std::uint8_t* data, std::size_t size) {
  if (fd_ < 0) {
    io_failure("append (store not open)");
    return;
  }
  std::size_t written = 0;
  while (written < size) {
    const ::ssize_t n = ::write(fd_, data + written, size - written);
    if (n <= 0) {
      io_failure("write");
      return;
    }
    written += static_cast<std::size_t>(n);
  }
}

void FileJournalStore::sync() {
  if (fd_ < 0) return;
  if (::fsync(fd_) != 0) {
    io_failure("fsync");
    return;
  }
  io_recovered();
}

std::vector<std::uint8_t> FileJournalStore::read_all() const {
  std::vector<std::uint8_t> out;
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) return out;
  std::uint8_t buffer[4096];
  ::ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    out.insert(out.end(), buffer, buffer + n);
  }
  ::close(fd);
  return out;
}

void FileJournalStore::truncate(std::size_t size) {
  if (fd_ >= 0 && ::ftruncate(fd_, static_cast<::off_t>(size)) != 0) {
    io_failure("ftruncate");
  }
}

void FileJournalStore::begin_rewrite() {
  if (rewrite_fd_ >= 0) ::close(rewrite_fd_);
  const std::string tmp = path_ + ".rewrite";
  rewrite_fd_ = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (rewrite_fd_ < 0) {
    DFI_WARN << "journal: cannot open " << tmp;
  }
}

void FileJournalStore::append_rewrite(const std::uint8_t* data, std::size_t size) {
  if (rewrite_fd_ < 0) return;
  std::size_t written = 0;
  while (written < size) {
    const ::ssize_t n = ::write(rewrite_fd_, data + written, size - written);
    if (n <= 0) {
      io_failure("rewrite write");
      return;
    }
    written += static_cast<std::size_t>(n);
  }
}

void FileJournalStore::commit_rewrite() {
  if (rewrite_fd_ < 0) return;
  const bool staged_ok = ::fsync(rewrite_fd_) == 0;
  ::close(rewrite_fd_);
  rewrite_fd_ = -1;
  if (!staged_ok) {
    // Committing an unsynced staging file could swap in a hole where the
    // log was; keep the old image.
    io_failure("rewrite fsync");
    return;
  }
  const std::string tmp = path_ + ".rewrite";
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    io_failure("rename");
    return;
  }
  // The rename orders the swap but only a parent-directory fsync makes the
  // new directory entry durable: without it a power cut can resurrect the
  // pre-compaction image.
  const bool dir_ok = sync_parent_dir();
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND);
  if (fd_ < 0) {
    io_failure("reopen");
    return;
  }
  if (!dir_ok) {
    io_failure("parent-dir fsync");
    return;
  }
  io_recovered();
}

// ---------------------------------------------------------------- Journal

std::string Journal::frame(const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 8);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(reinterpret_cast<const std::uint8_t*>(payload.data()),
                     payload.size()));
  out += payload;
  return out;
}

void Journal::append_raw(const std::string& payload) {
  const std::string framed = frame(payload);
  store_.append(reinterpret_cast<const std::uint8_t*>(framed.data()),
                framed.size());
  store_.sync();
  ++stats_.appends;
  stats_.bytes_appended += framed.size();
}

void Journal::append_record(const std::string& payload) {
  if (replaying_) return;
  if (fenced_out()) {
    // Deposed: a higher fencing epoch exists somewhere. Nothing this
    // journal writes can become authoritative again, so the mutation must
    // not happen (fail-secure).
    ++stats_.fenced_appends;
    throw FencedException{};
  }
  append_raw(payload);
  if (append_observer_) append_observer_(payload);
}

Status Journal::set_fence_epoch(std::uint64_t epoch) {
  if (epoch < fence_epoch_) {
    return Status::Fail(ErrorCode::kInvalidArgument,
                        "journal: fence epoch may not regress");
  }
  if (epoch == fence_epoch_) return Status::Ok();
  if (!replaying_) append_raw("f|" + std::to_string(epoch));
  fence_epoch_ = epoch;
  if (epoch > observed_fence_) observed_fence_ = epoch;
  ++stats_.fence_bumps;
  return Status::Ok();
}

void Journal::observe_fence(std::uint64_t epoch) {
  if (epoch > observed_fence_) observed_fence_ = epoch;
}

void Journal::append_policy_insert(PolicyRuleId id, const StoredPolicyRule& stored,
                                   std::uint64_t epoch_after) {
  append_record("p+|" + std::to_string(id.value) + "|" +
                std::to_string(epoch_after) + "|" + policy_rule_line(stored));
}

void Journal::append_policy_revoke(PolicyRuleId id, std::uint64_t epoch_after) {
  append_record("p-|" + std::to_string(id.value) + "|" +
                std::to_string(epoch_after));
}

void Journal::append_binding(const BindingEvent& event) {
  append_record(std::string("b|") + (event.retracted ? "-" : "+") + "|" +
                binding_event_line(event));
}

Result<JournalRecovery> Journal::recover(PolicyManager& manager,
                                         EntityResolutionManager& erm) {
  const std::vector<std::uint8_t> bytes = store_.read_all();

  // Frame scan with torn-tail tolerance: a record whose length prefix runs
  // past the image or whose checksum fails marks where the crash cut the
  // log; everything before it is intact (appends are sequential).
  std::vector<std::string> records;
  std::size_t offset = 0;
  while (bytes.size() - offset >= 8) {
    const std::uint32_t length = read_u32(bytes.data() + offset);
    const std::uint32_t stored_crc = read_u32(bytes.data() + offset + 4);
    if (length > bytes.size() - offset - 8) break;  // cut short
    const std::uint8_t* payload = bytes.data() + offset + 8;
    if (crc32(payload, length) != stored_crc) break;  // torn or corrupt
    records.emplace_back(reinterpret_cast<const char*>(payload), length);
    offset += 8u + length;
  }

  JournalRecovery recovery;
  if (offset < bytes.size()) {
    recovery.tail_truncated = true;
    recovery.bytes_discarded = bytes.size() - offset;
    store_.truncate(offset);
    ++stats_.torn_tails_truncated;
    stats_.torn_bytes_discarded += recovery.bytes_discarded;
  }

  replaying_ = true;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Status status = apply_record(records[i], manager, erm, i == 0);
    if (!status.ok()) {
      replaying_ = false;
      return Result<JournalRecovery>::Fail(status.error().code,
                                           status.error().message +
                                               " (record " + std::to_string(i) +
                                               ")");
    }
    if (records[i].rfind("snapshot|", 0) == 0) recovery.snapshot_loaded = true;
  }
  replaying_ = false;

  recovery.records_replayed = records.size();
  ++stats_.replays;
  stats_.records_replayed += records.size();
  return recovery;
}

Status Journal::apply_record(const std::string& payload, PolicyManager& manager,
                             EntityResolutionManager& erm, bool first_record) {
  if (payload.rfind("snapshot|", 0) == 0) {
    // Compaction rewrites the whole store down to one snapshot record, so
    // a snapshot can only ever be the first thing a restart reads.
    if (!first_record) return malformed("snapshot record not at log head");
    return apply_snapshot(payload, manager, erm);
  }
  if (payload.rfind("p+|", 0) == 0) {
    const std::string rest = payload.substr(3);
    const auto id_end = rest.find('|');
    if (id_end == std::string::npos) return malformed("bad p+ record");
    const auto epoch_end = rest.find('|', id_end + 1);
    if (epoch_end == std::string::npos) return malformed("bad p+ record");
    std::uint64_t id = 0;
    std::uint64_t epoch_after = 0;
    try {
      id = std::stoull(rest.substr(0, id_end));
      epoch_after = std::stoull(rest.substr(id_end + 1, epoch_end - id_end - 1));
    } catch (...) {
      return malformed("bad p+ numerics");
    }
    auto parsed = parse_policy_rule_line(rest.substr(epoch_end + 1));
    if (!parsed.ok()) return malformed(parsed.error().message);
    StoredPolicyRule stored = std::move(parsed).value();
    stored.id = PolicyRuleId{id};
    manager.restore_rule(std::move(stored));
    manager.advance_epoch_to(epoch_after);
    return Status::Ok();
  }
  if (payload.rfind("p-|", 0) == 0) {
    const auto parts = split(payload, '|');
    if (parts.size() != 3) return malformed("bad p- record");
    std::uint64_t id = 0;
    std::uint64_t epoch_after = 0;
    try {
      id = std::stoull(parts[1]);
      epoch_after = std::stoull(parts[2]);
    } catch (...) {
      return malformed("bad p- numerics");
    }
    if (!manager.restore_revoke(PolicyRuleId{id})) {
      return malformed("p- cites unknown rule " + parts[1]);
    }
    manager.advance_epoch_to(epoch_after);
    return Status::Ok();
  }
  if (payload.rfind("f|", 0) == 0) {
    std::uint64_t epoch = 0;
    try {
      epoch = std::stoull(payload.substr(2));
    } catch (...) {
      return malformed("bad fence record");
    }
    if (epoch > fence_epoch_) fence_epoch_ = epoch;
    if (epoch > observed_fence_) observed_fence_ = epoch;
    return Status::Ok();
  }
  if (payload.rfind("b|", 0) == 0) {
    if (payload.size() < 4 || (payload[2] != '+' && payload[2] != '-') ||
        payload[3] != '|') {
      return malformed("bad binding record");
    }
    auto parsed = parse_binding_event_line(payload.substr(4));
    if (!parsed.ok()) return malformed(parsed.error().message);
    BindingEvent event = std::move(parsed).value();
    event.retracted = payload[2] == '-';
    // Replaying the same events against the same prior state reproduces
    // the same epoch deltas, so the binding epoch lands exactly where the
    // pre-crash process left it.
    erm.apply(event);
    return Status::Ok();
  }
  return malformed("unknown record type");
}

Status Journal::apply_snapshot(const std::string& payload, PolicyManager& manager,
                               EntityResolutionManager& erm) {
  std::istringstream in(payload);
  std::string header;
  if (!std::getline(in, header)) return malformed("empty snapshot");
  const auto fields = split(header, '|');
  if (fields.size() != 6 || fields[0] != "snapshot" || fields[1] != "v1") {
    return malformed("bad snapshot header");
  }
  std::uint64_t next_id = 0;
  std::uint64_t policy_epoch = 0;
  std::uint64_t binding_epoch = 0;
  if (!parse_kv_u64(fields[2], "next_id", next_id) ||
      !parse_kv_u64(fields[3], "policy_epoch", policy_epoch) ||
      !parse_kv_u64(fields[4], "binding_epoch", binding_epoch)) {
    return malformed("bad snapshot header numerics");
  }
  if (fields[5].rfind("ids=", 0) != 0) return malformed("bad snapshot ids");
  std::vector<std::uint64_t> ids;
  const std::string ids_csv = fields[5].substr(4);
  if (!ids_csv.empty()) {
    for (const std::string& id_text : split(ids_csv, ',')) {
      try {
        ids.push_back(std::stoull(id_text));
      } catch (...) {
        return malformed("bad snapshot id: " + id_text);
      }
    }
  }

  // Policy section: the k-th line is the k-th id. save_policies emits rules
  // in ascending-id order, so the pairing is well-defined.
  std::string line;
  std::size_t rule_index = 0;
  bool saw_separator = false;
  while (std::getline(in, line)) {
    if (line == "---") {
      saw_separator = true;
      break;
    }
    if (line.empty()) continue;
    if (rule_index >= ids.size()) return malformed("more rules than ids");
    auto parsed = parse_policy_rule_line(line);
    if (!parsed.ok()) return malformed(parsed.error().message);
    StoredPolicyRule stored = std::move(parsed).value();
    stored.id = PolicyRuleId{ids[rule_index]};
    manager.restore_rule(std::move(stored));
    ++rule_index;
  }
  if (rule_index != ids.size()) return malformed("fewer rules than ids");
  if (!saw_separator) return malformed("snapshot missing section separator");
  manager.restore_next_id(next_id);
  manager.advance_epoch_to(policy_epoch);

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = parse_binding_event_line(line);
    if (!parsed.ok()) return malformed(parsed.error().message);
    erm.apply(parsed.value());
  }
  erm.advance_epoch_to(binding_epoch);
  ++stats_.snapshots_loaded;
  return Status::Ok();
}

std::string Journal::snapshot_payload(const PolicyManager& manager,
                                      const EntityResolutionManager& erm) {
  std::string ids_csv;
  for (const StoredPolicyRule& stored : manager.rules()) {
    if (!ids_csv.empty()) ids_csv += ",";
    ids_csv += std::to_string(stored.id.value);
  }
  std::string payload = "snapshot|v1|next_id=" + std::to_string(manager.next_id()) +
                        "|policy_epoch=" + std::to_string(manager.epoch()) +
                        "|binding_epoch=" + std::to_string(erm.epoch()) +
                        "|ids=" + ids_csv + "\n";
  payload += save_policies(manager);
  payload += "---\n";
  payload += save_bindings(erm);
  return payload;
}

Status Journal::compact(const PolicyManager& manager,
                        const EntityResolutionManager& erm) {
  if (replaying_) {
    return Status::Fail(ErrorCode::kInvalidArgument,
                        "journal: compact during replay");
  }
  const std::string payload = snapshot_payload(manager, erm);
  const std::string framed = frame(payload);
  store_.begin_rewrite();
  store_.append_rewrite(reinterpret_cast<const std::uint8_t*>(framed.data()),
                        framed.size());
  if (fence_epoch_ > 0) {
    // The fencing epoch survives compaction: a deposed-then-compacted
    // journal must still recover knowing which epoch it wrote under.
    const std::string fence = frame("f|" + std::to_string(fence_epoch_));
    store_.append_rewrite(reinterpret_cast<const std::uint8_t*>(fence.data()),
                          fence.size());
  }
  store_.commit_rewrite();
  ++stats_.compactions;
  return Status::Ok();
}

Status Journal::ingest_replicated(const std::string& payload,
                                  PolicyManager& manager,
                                  EntityResolutionManager& erm) {
  if (replaying_) {
    return Status::Fail(ErrorCode::kInvalidArgument,
                        "journal: ingest during replay");
  }
  // WAL ordering holds on the standby too: the record is durable in the
  // local store before its effects land in the managers.
  append_raw(payload);
  replaying_ = true;  // restore_* path; suppress re-journaling via apply()
  const Status status = apply_record(payload, manager, erm, false);
  replaying_ = false;
  return status;
}

Status Journal::install_snapshot(const std::string& snapshot_payload,
                                 std::uint64_t fence_epoch, PolicyManager& manager,
                                 EntityResolutionManager& erm) {
  if (replaying_) {
    return Status::Fail(ErrorCode::kInvalidArgument,
                        "journal: install_snapshot during replay");
  }
  const std::string framed = frame(snapshot_payload);
  store_.begin_rewrite();
  store_.append_rewrite(reinterpret_cast<const std::uint8_t*>(framed.data()),
                        framed.size());
  if (fence_epoch > 0) {
    const std::string fence = frame("f|" + std::to_string(fence_epoch));
    store_.append_rewrite(reinterpret_cast<const std::uint8_t*>(fence.data()),
                          fence.size());
  }
  store_.commit_rewrite();
  replaying_ = true;
  const Status status = apply_snapshot(snapshot_payload, manager, erm);
  replaying_ = false;
  if (!status.ok()) return status;
  if (fence_epoch > fence_epoch_) fence_epoch_ = fence_epoch;
  if (fence_epoch > observed_fence_) observed_fence_ = fence_epoch;
  return Status::Ok();
}

}  // namespace dfi

#include "lsm/env.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

namespace bloomrf {

namespace {

class PosixWritableFile : public WritableFile {
 public:
  explicit PosixWritableFile(int fd) : fd_(fd) {}
  ~PosixWritableFile() override { Close(); }

  bool Append(std::string_view data) override {
    if (fd_ < 0) return false;
    size_t done = 0;
    while (done < data.size()) {
      ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
      if (n < 0) return false;
      done += static_cast<size_t>(n);
    }
    return true;
  }

  bool Sync() override {
    if (fd_ < 0) return false;
#ifdef __linux__
    return ::fdatasync(fd_) == 0;
#else
    return ::fsync(fd_) == 0;
#endif
  }

  bool Close() override {
    if (fd_ < 0) return true;
    int fd = fd_;
    fd_ = -1;
    return ::close(fd) == 0;
  }

 private:
  int fd_;
};

class PosixEnv : public Env {
 public:
  std::unique_ptr<WritableFile> NewWritableFile(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) return nullptr;
    return std::make_unique<PosixWritableFile>(fd);
  }

  bool RenameFile(const std::string& from, const std::string& to) override {
    std::error_code ec;
    std::filesystem::rename(from, to, ec);
    return !ec;
  }

  bool DeleteFile(const std::string& path) override {
    std::error_code ec;
    return std::filesystem::remove(path, ec) && !ec;
  }

  bool SyncDir(const std::string& dir) override {
    int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0) return false;
    bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
  }

  bool FileExists(const std::string& path) override {
    std::error_code ec;
    return std::filesystem::exists(path, ec);
  }
};

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();  // leaked: outlives every Db
  return env;
}

std::string FaultKindForPath(const std::string& path) {
  std::string_view name(path);
  size_t slash = name.find_last_of("/\\");
  if (slash != std::string_view::npos) name.remove_prefix(slash + 1);
  if (EndsWith(name, ".tmp")) name.remove_suffix(4);
  if (EndsWith(name, ".sst")) return "sst";
  if (StartsWith(name, "MANIFEST-")) return "manifest";
  if (name == "CURRENT") return "current";
  if (StartsWith(name, "wal-") && EndsWith(name, ".log")) return "wal";
  return "file";
}

// ---------------------------------------------------------------------
// FaultInjectionEnv
// ---------------------------------------------------------------------

/// WritableFile wrapper routing every call through the fault gate.
/// The site kind is fixed at open time from the file's path. Not in an
/// anonymous namespace: FaultInjectionEnv befriends it by name.
class FaultInjectedFile : public WritableFile {
 public:
  FaultInjectedFile(FaultInjectionEnv* env, std::string kind,
                    std::unique_ptr<WritableFile> base)
      : env_(env), kind_(std::move(kind)), base_(std::move(base)) {}

  bool Append(std::string_view data) override;
  bool Sync() override;
  bool Close() override;

 private:
  FaultInjectionEnv* const env_;
  const std::string kind_;
  std::unique_ptr<WritableFile> base_;
  bool broken_ = false;
};

FaultInjectionEnv::FaultInjectionEnv(Env* base)
    : base_(base != nullptr ? base : Env::Default()) {}

void FaultInjectionEnv::FailTimes(const std::string& site, int times) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_[site] = Rule{times, -1};
}

void FaultInjectionEnv::FailAlways(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_[site] = Rule{-1, -1};
}

void FaultInjectionEnv::FailAfterBytes(const std::string& site,
                                       uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_[site] = Rule{-1, static_cast<int64_t>(bytes)};
}

void FaultInjectionEnv::Heal(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.erase(site);
}

void FaultInjectionEnv::HealAll() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
}

void FaultInjectionEnv::CrashAtOp(uint64_t op, bool torn) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_at_ = static_cast<int64_t>(op);
  crash_torn_ = torn;
  crashed_ = false;
  op_count_ = 0;
}

void FaultInjectionEnv::ClearCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  crash_at_ = -1;
  crashed_ = false;
}

bool FaultInjectionEnv::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

uint64_t FaultInjectionEnv::op_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return op_count_;
}

bool FaultInjectionEnv::OpAllowed(const std::string& kind, const char* op,
                                  uint64_t append_bytes,
                                  uint64_t* write_allowance) {
  if (write_allowance != nullptr) *write_allowance = 0;
  std::lock_guard<std::mutex> lock(mu_);

  // Crash simulation. WAL sites are exempt (see header): their bytes
  // live in the page cache of the "killed" process and survive.
  if (kind != "wal") {
    const uint64_t index = op_count_++;
    if (crashed_) return false;
    if (crash_at_ >= 0 && index >= static_cast<uint64_t>(crash_at_)) {
      crashed_ = true;
      if (crash_torn_ && write_allowance != nullptr && append_bytes > 0) {
        // The dying write lands a prefix: half the data, at least one
        // byte, never all of it.
        *write_allowance = std::max<uint64_t>(1, append_bytes / 2);
      }
      return false;
    }
  }

  // Site hooks: exact "<kind>.<op>" first, then the bare kind.
  const std::string site = kind + "." + op;
  for (const std::string* key : {&site, &kind}) {
    auto it = rules_.find(*key);
    if (it == rules_.end()) continue;
    Rule& rule = it->second;
    if (rule.byte_budget >= 0) {
      // Torn-write budget: appends drain it; the append that would
      // exceed it writes the remainder and fails; every op on the
      // site fails once the budget is gone.
      if (append_bytes > 0 &&
          static_cast<int64_t>(append_bytes) <= rule.byte_budget) {
        rule.byte_budget -= static_cast<int64_t>(append_bytes);
        return true;
      }
      if (write_allowance != nullptr) {
        *write_allowance = static_cast<uint64_t>(rule.byte_budget);
      }
      rule.byte_budget = 0;
      return false;
    }
    if (rule.fail_remaining != 0) {
      if (rule.fail_remaining > 0) --rule.fail_remaining;
      return false;
    }
  }
  return true;
}

bool FaultInjectedFile::Append(std::string_view data) {
  if (broken_) return false;
  uint64_t allowance = 0;
  if (!env_->OpAllowed(kind_, "append", data.size(), &allowance)) {
    if (allowance > 0) {
      base_->Append(data.substr(0, std::min<size_t>(allowance, data.size())));
    }
    broken_ = true;
    return false;
  }
  return base_->Append(data);
}

bool FaultInjectedFile::Sync() {
  if (broken_) return false;
  if (!env_->OpAllowed(kind_, "sync", 0, nullptr)) {
    broken_ = true;
    return false;
  }
  return base_->Sync();
}

bool FaultInjectedFile::Close() {
  if (broken_) return base_->Close(), false;
  if (!env_->OpAllowed(kind_, "close", 0, nullptr)) {
    base_->Close();
    broken_ = true;
    return false;
  }
  return base_->Close();
}

std::unique_ptr<WritableFile> FaultInjectionEnv::NewWritableFile(
    const std::string& path) {
  std::string kind = FaultKindForPath(path);
  if (!OpAllowed(kind, "open", 0, nullptr)) return nullptr;
  auto base = base_->NewWritableFile(path);
  if (base == nullptr) return nullptr;
  return std::make_unique<FaultInjectedFile>(this, std::move(kind),
                                             std::move(base));
}

bool FaultInjectionEnv::RenameFile(const std::string& from,
                                   const std::string& to) {
  // Classified by destination: the CURRENT swap renames CURRENT.tmp ->
  // CURRENT and must fault as "current.rename".
  if (!OpAllowed(FaultKindForPath(to), "rename", 0, nullptr)) return false;
  return base_->RenameFile(from, to);
}

bool FaultInjectionEnv::DeleteFile(const std::string& path) {
  if (!OpAllowed(FaultKindForPath(path), "delete", 0, nullptr)) return false;
  return base_->DeleteFile(path);
}

bool FaultInjectionEnv::SyncDir(const std::string& dir) {
  if (!OpAllowed("file", "dirsync", 0, nullptr)) return false;
  return base_->SyncDir(dir);
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);  // read-side: never faulted
}

bool FaultInjectionEnv::InjectFault(const char* site) {
  // Split "<kind>.<op>" back apart so wal sites share the crash
  // exemption and rule lookup of every other op.
  std::string s(site);
  size_t dot = s.find('.');
  std::string kind = dot == std::string::npos ? s : s.substr(0, dot);
  std::string op = dot == std::string::npos ? "op" : s.substr(dot + 1);
  return !OpAllowed(kind, op.c_str(), 0, nullptr);
}

}  // namespace bloomrf

// Versioned MANIFEST of the mini-LSM store: the durable log of table
// edits that makes recovery independent of directory globbing.
//
// A MANIFEST-<n> file is a sequence of CRC-framed records in the WAL's
// exact frame format (crc | length | type | payload; see lsm/wal.h),
// with record type kManifestEditRecord. Each payload is one
// VersionEdit: a tagged list of
//   log number        (WAL files <= it are fully flushed, skippable)
//   next file number  (SST numbering floor after recovery)
//   added files       (level, file number, smallest/largest key,
//                      entry count, file bytes)
//   deleted files     (level, file number)
// Replaying the edits in order rebuilds the level structure; a torn or
// corrupt tail is tolerated exactly like WAL replay (everything before
// it is trusted), which is safe because an edit missing from the
// MANIFEST implies its flush never reported success, so the covering
// WAL file was never deleted.
//
// The CURRENT file names the live manifest ("MANIFEST-<n>\n") and is
// swapped atomically (write CURRENT.tmp, fsync, rename, fsync dir);
// recovery reads CURRENT first and falls back to the highest-numbered
// manifest on disk; with neither, every *.sst is quarantined (renamed
// to *.corrupt) rather than served in a guessed order.

#ifndef BLOOMRF_LSM_MANIFEST_H_
#define BLOOMRF_LSM_MANIFEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lsm/env.h"

namespace bloomrf {

inline constexpr char kManifestEditRecord = 2;

/// One SST's manifest metadata. Key bounds are inclusive.
struct FileMeta {
  uint64_t file_number = 0;
  uint64_t smallest = 0;
  uint64_t largest = 0;
  uint64_t entries = 0;
  uint64_t file_bytes = 0;
};

/// One atomic mutation of the table tree.
struct VersionEdit {
  bool has_log_number = false;
  uint64_t log_number = 0;
  bool has_next_file_number = false;
  uint64_t next_file_number = 0;
  std::vector<std::pair<uint32_t, FileMeta>> added;     // (level, meta)
  std::vector<std::pair<uint32_t, uint64_t>> deleted;   // (level, file)

  void SetLogNumber(uint64_t n) {
    has_log_number = true;
    log_number = n;
  }
  void SetNextFileNumber(uint64_t n) {
    has_next_file_number = true;
    next_file_number = n;
  }

  /// Serializes the edit as one manifest record payload.
  std::string Encode() const;
  /// Parses a payload; false on any malformed byte (the caller treats
  /// the record as corruption and stops replay there).
  static bool Decode(std::string_view payload, VersionEdit* edit);
};

/// Accumulated result of replaying a manifest.
struct ManifestState {
  /// levels[0] = L0 in add order (oldest first); deeper levels in add
  /// order too — the writer emits them sorted by smallest key.
  std::vector<std::vector<FileMeta>> levels;
  uint64_t log_number = 0;
  uint64_t next_file_number = 0;
  uint64_t edits = 0;   // intact edits applied
  bool clean = true;    // false: stopped at a torn/corrupt tail

  /// Applies one decoded edit; false when it is inconsistent with the
  /// accumulated state (deleting an absent file).
  bool Apply(const VersionEdit& edit);
};

std::string ManifestFileName(const std::string& dir, uint64_t number);
std::string CurrentFileName(const std::string& dir);

/// Replays the manifest at `path` into *state (state starts fresh).
/// Missing file = clean empty state with zero edits.
void ManifestReplay(const std::string& path, ManifestState* state);

/// Reads CURRENT; returns the manifest number it names, or 0 when the
/// file is missing or malformed.
uint64_t ReadCurrentManifestNumber(const std::string& dir);

/// Durably points CURRENT at MANIFEST-<number>: writes CURRENT.tmp,
/// fsyncs it, renames over CURRENT and fsyncs the directory — atomic
/// with respect to a crash at any step.
bool SetCurrentFile(Env* env, const std::string& dir, uint64_t number);

/// Appending writer for one MANIFEST-<n> file. Every Append is synced
/// before it reports success (an edit the caller acts on — publishing
/// a Version, deleting a WAL — must survive a crash). Errors are
/// sticky; the Db recovers by rewriting a fresh manifest.
class ManifestWriter {
 public:
  /// Creates (truncating) MANIFEST-<number> through `env`.
  ManifestWriter(Env* env, const std::string& dir, uint64_t number);

  /// False when the file could not be created or a write failed.
  bool ok() const { return file_ != nullptr && !broken_; }
  bool Append(const VersionEdit& edit);

  uint64_t number() const { return number_; }
  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

 private:
  const uint64_t number_;
  const std::string path_;
  std::unique_ptr<WritableFile> file_;
  uint64_t bytes_written_ = 0;
  bool broken_ = false;
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_MANIFEST_H_

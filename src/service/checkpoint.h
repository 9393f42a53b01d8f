/// \file
/// Session checkpoint/restore (DESIGN.md §9): persists the FULL warm-start
/// state of a hosted session — fact database, log-linear weights, posterior
/// beliefs, labeled/confirmed sets, termination-monitor counters, RNG
/// streams (engine, strategy, simulated user) and, for streaming sessions,
/// the online-EM window — versioned and round-trip exact. The guarantee
/// the tests pin: restore-then-continue produces bit-for-bit the same
/// posterior as a never-checkpointed run. This is also the spill format of
/// the SessionManager's LRU eviction, which is what lets a bounded-memory
/// service host more sessions than fit in RAM.
///
/// A checkpoint directory holds one file, session.bin (BinaryWriter
/// framing, data/io.h), which holds in order:
///   magic "VCKP", format version (u32)
///   the SessionSpec
///   the session's fact database (WriteFactDatabase; streaming sessions
///   store the source corpus whose tail is still un-arrived)
///   the mode-specific numeric state, the simulated user's RNG and the
///   step counter
///   a u64 checksum: HashBytes (common/hash.h, seed 0) of every byte
///   before it.
/// A save writes session.bin.tmp, syncs it and renames it over
/// session.bin, so a crash mid-save leaves the previous checkpoint whole.
/// One writer per directory at a time.
///
/// The record is written and read by two visitors over the VisitFields
/// lists the wire codec also uses (common/fields.h): each struct's fields
/// in visit order, untagged. Only BeliefState, the fact database and the
/// session's own tail (pending plan, arrival cursor, step counter) are laid
/// out by hand.

#ifndef VERITAS_SERVICE_CHECKPOINT_H_
#define VERITAS_SERVICE_CHECKPOINT_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "service/session.h"

namespace veritas {

/// Current checkpoint format version. Bumped on any layout change, and on
/// any change to a spelling table whose enum index the record stores (v4:
/// CrfBackend lost two values, so `dispatch` moved from 5 to 3); loaders
/// reject every other version instead of misreading it (there is no reader
/// for older versions).
inline constexpr uint32_t kCheckpointVersion = 4;

/// Writes `session` to `directory` (created when missing; an existing
/// checkpoint there is replaced atomically). The caller must hold the
/// session's lock (the SessionManager does).
Status SaveSessionCheckpoint(const Session& session,
                             const std::string& directory);

/// Reconstructs a session from a checkpoint directory. The returned session
/// continues exactly where the saved one stood: same posterior, same RNG
/// streams, same pending plan (when one was awaiting answers). kNotFound
/// when there is no session.bin. Before any field is parsed, a file shorter
/// than header plus checksum, a bad magic, a version other than
/// kCheckpointVersion and a checksum mismatch are rejected, in that order,
/// all with kInvalidArgument.
Result<std::unique_ptr<Session>> LoadSessionCheckpoint(
    const std::string& directory);

/// On-disk bytes of a checkpoint directory's session.bin. 0 when it is
/// missing or unreadable — sizing is diagnostic, never fatal.
/// Feeds the SessionManager's spill_bytes counter and the checkpoint-size
/// histogram (DESIGN.md §14).
size_t CheckpointSizeBytes(const std::string& directory);

}  // namespace veritas

#endif  // VERITAS_SERVICE_CHECKPOINT_H_

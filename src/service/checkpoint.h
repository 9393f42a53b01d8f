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
/// On-disk layout of a checkpoint directory:
///   db/           the session's fact database (TSV, data/io.h; streaming
///                 sessions store the source corpus whose tail is still
///                 un-arrived)
///   session.bin   versioned binary record (BinaryWriter framing):
///                 magic "VCKP", format version, the SessionSpec, and the
///                 mode-specific numeric state, with nothing after it.
///
/// The record is written and read by two visitors over the VisitFields
/// lists the wire codec also uses (common/fields.h): each struct's fields
/// in visit order, untagged. Only BeliefState and the session's own tail
/// (pending plan, arrival cursor, step counter) are laid out by hand.

#ifndef VERITAS_SERVICE_CHECKPOINT_H_
#define VERITAS_SERVICE_CHECKPOINT_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "service/session.h"

namespace veritas {

/// Current checkpoint format version. Bumped on any layout change; loaders
/// reject versions they do not understand instead of misreading them.
/// v2: GibbsOptions carries num_threads, ICrfOptions the two CRF backend
/// selectors, and GuidanceConfig the fan-out kernel + its schedule — all
/// previously dropped on save, so restores silently reverted them to
/// defaults.
inline constexpr uint32_t kCheckpointVersion = 2;

/// Writes `session` to `directory` (created when missing, overwritten when
/// not). The caller must hold the session's lock (the SessionManager does).
Status SaveSessionCheckpoint(const Session& session,
                             const std::string& directory);

/// Reconstructs a session from a checkpoint directory. The returned session
/// continues exactly where the saved one stood: same posterior, same RNG
/// streams, same pending plan (when one was awaiting answers).
Result<std::unique_ptr<Session>> LoadSessionCheckpoint(
    const std::string& directory);

/// Total on-disk bytes of a checkpoint directory (recursive). 0 when the
/// directory is missing or unreadable — sizing is diagnostic, never fatal.
/// Feeds the SessionManager's spill_bytes counter and the checkpoint-size
/// histogram (DESIGN.md §14).
size_t CheckpointSizeBytes(const std::string& directory);

}  // namespace veritas

#endif  // VERITAS_SERVICE_CHECKPOINT_H_

// Protocol policies: the paper's algorithms as configuration.
//
// The crash-stop baseline, the persistent-atomic emulation (Fig. 4), the
// transient-atomic emulation (Fig. 5) and the weaker registers of section VI
// share one two-round quorum skeleton and differ only in *which* steps log to
// stable storage, how the write timestamp is produced, and what recovery
// does. A `protocol_policy` captures those switches; `quorum_core` executes
// any policy. Named constructors below give the paper's algorithms; the
// `flawed_*` and `ablation_*` policies exist to demonstrate the paper's lower
// bounds (Theorems 1 and 2) and the causal-log metric (section I-B).
#pragma once

#include <cstdint>
#include <string>

#include "common/time.h"

namespace remus::proto {

struct protocol_policy {
  std::string name = "unnamed";

  /// Crash semantics: true = crash-stop model (recover() is an error and
  /// nothing ever logs); false = crash-recovery model.
  bool crash_stop = false;

  /// Replicas log ("written", tag, value) before acking an adopted write.
  /// Off only for crash-stop emulations and the volatile-writeback flaw.
  bool log_on_adopt = true;

  /// Replicas log when the adopted message is a read's write-back. Turning
  /// this off (with log_on_adopt on) yields the Theorem-2 flaw: reads that
  /// never reach stable storage.
  bool log_on_read_writeback = true;

  /// Writer logs ("writing", tag, value) after choosing the timestamp and
  /// before broadcasting (paper Fig. 4 line 12). The first of the persistent
  /// emulation's two causal logs.
  bool writer_prelog = false;

  /// Recovery re-runs the write's second round with the logged "writing"
  /// record (paper Fig. 4 Recover). Requires writer_prelog.
  bool recovery_finish_write = false;

  /// Maintain the `rec` recovery counter: log it on every recovery and add
  /// it when incrementing the sequence number (paper Fig. 5 lines 11, 16-22).
  bool recovery_counter = false;

  /// Embed `rec` in the tag as a tie-break component (see common/timestamp.h
  /// for why the literal Fig. 5 needs this to make its monotonicity claim
  /// hold). transient_literal_policy() turns this off to exhibit the flaw.
  bool rec_in_tag = false;

  /// Writes run a first round querying a majority for the highest sequence
  /// number (multi-writer, paper Fig. 4 lines 7-10). Off = single-writer
  /// ABD: the writer increments a local counter instead (1 round-trip
  /// writes). Only sound with one writer.
  bool write_query_round = true;

  /// Reads run a second round writing back the freshest (tag, value) to a
  /// majority (atomic reads). Off = regular/safe reads (1 round-trip),
  /// or the no-write-back atomicity flaw when combined with atomic claims.
  bool read_writeback = true;

  /// Safe-register semantics: the read returns the *first* reply's value
  /// rather than the freshest of a majority. Meaningful only with
  /// read_writeback == false.
  bool read_return_first = false;

  /// Wait for acks from all n processes instead of a majority (the
  /// non-robust algorithms A and A' of section I-B).
  bool wait_for_all = false;

  /// Only process 0 may write (ABD single-writer variants).
  bool single_writer = false;

  /// Client retransmission period for the repeat/until loops of the
  /// pseudocode (fair-lossy channels require retransmission).
  time_ns retransmit_delay = 50 * 1000 * 1000;

  /// Read leases: a process whose quorum reads keep missing the same
  /// register asks its grant round to install a freshness lease — every
  /// replica that acks durably records (register, holder) through the WAL
  /// store_and_obsolete path, and while the lease holds the holder serves
  /// reads of that register from its own replica slot with zero messages.
  /// Writers learn of recorded holders from lease notes piggybacked on
  /// update-round acks and wait for every noted holder's ack before
  /// completing (the common write path stays one update round); serving any
  /// update for a held register drops the holding, so a completed write is
  /// never followed by a stale leased read. Holder-side holdings are
  /// volatile — a crash revokes them implicitly because recovery rebuilds
  /// only the durable grantor side (the lease is bound to the holder's
  /// incarnation). Requires the crash-recovery model and write-back reads.
  bool read_leases = false;

  /// Lease freshness window: the holder stops serving locally at
  /// grant-send + lease_duration; each grantor forgets its record at
  /// record-time + lease_duration (strictly later, so writers keep waiting
  /// for a holder at least as long as it may serve).
  time_ns lease_duration = 500 * 1000 * 1000;

  /// Quorum reads of the same register by the same process before the next
  /// read becomes a lease grant round. 0 = lease on first read.
  std::uint32_t lease_hot_read_threshold = 2;

  /// Sanity: reject contradictory switch combinations.
  [[nodiscard]] bool coherent() const;
};

// --- The paper's algorithms -------------------------------------------------

/// Crash-stop MWMR atomic register ([Lynch & Shvartsman 97], paper's
/// baseline "atomic crash-stop" in Fig. 6): two round-trips, no logging.
[[nodiscard]] protocol_policy crash_stop_policy();

/// Persistent atomic crash-recovery register (paper Fig. 4): 2 causal logs
/// per write, 1 per read; recovery finishes the pending write.
[[nodiscard]] protocol_policy persistent_policy();

/// Transient atomic crash-recovery register (paper Fig. 5): 1 causal log per
/// write and read; recovery logs the incremented recovery counter.
[[nodiscard]] protocol_policy transient_policy();

// --- Section VI: weaker registers (crash-stop) ------------------------------

/// Single-writer/multi-reader atomic register ([Attiya, Bar-Noy, Dolev 95]):
/// 1 round-trip writes (local counter), 2 round-trip reads.
[[nodiscard]] protocol_policy abd_swmr_policy();

/// SWMR regular register: like ABD but reads skip the write-back round.
[[nodiscard]] protocol_policy regular_swmr_policy();

/// SWMR safe register: 1-round reads returning the first reply.
[[nodiscard]] protocol_policy safe_swmr_policy();

/// Crash-recovery MWMR *regular* register (section VI): transient-style
/// writes (1 causal log) with single-round reads that never log. Weaker
/// than transient atomicity — new/old read inversions are possible — which
/// is exactly the paper's point: the saved round-trip buys no log savings.
[[nodiscard]] protocol_policy regular_cr_policy();

/// Crash-recovery safe register: regular_cr with first-reply reads.
[[nodiscard]] protocol_policy safe_cr_policy();

// --- Lower-bound / flaw demonstrations (tests and benches only) -------------

/// Fig. 5 taken literally: recovery counter logged but not embedded in tags.
/// Two incarnations of a writer can emit the same [sn, i] for different
/// values when the query majority's max regresses (confused-values).
[[nodiscard]] protocol_policy transient_literal_policy();

/// Persistent emulation without the writer pre-log and without
/// finish-on-recovery: Theorem 1's inevitable violation (run rho1).
[[nodiscard]] protocol_policy persistent_no_prelog_policy();

/// Atomic-claiming reads without the write-back round: violates atomicity
/// even crash-free (new/old read inversion).
[[nodiscard]] protocol_policy read_no_writeback_policy();

/// Reads write back to volatile memory only (no server log on write-back):
/// Theorem 2's flaw — a read that reaches no stable storage cannot survive
/// crashes of the processes it informed.
[[nodiscard]] protocol_policy read_volatile_writeback_policy();

// --- Section I-B log-placement ablation --------------------------------------

/// Algorithm A: writer logs, then broadcasts; every other process logs
/// before acking; wait for all acks. Write costs 2 causal logs (2delta+2lambda).
[[nodiscard]] protocol_policy ablation_a_policy();

/// Algorithm A': writer broadcasts immediately; every process (including the
/// writer's own listener) logs before acking; wait for all acks. Write costs
/// 1 causal log (2delta+lambda).
[[nodiscard]] protocol_policy ablation_a_prime_policy();

}  // namespace remus::proto

(** The write-ahead log both protocol kernels keep on a {!Sim.Disk}.

    One engine, one on-disk format, one commit policy.  [Zmail.Isp] and
    [Zmail.Bank] own only what is theirs — their record tags, the
    writers that encode a transition's inputs, the dispatch that
    replays one record, and the step each takes after recovery; this
    module owns everything else:

    - the {e kernel image}: a [Persist.Codec] body with its own CRC-32
      trailer ({!image}/{!restore_image}), so a flipped bit anywhere in
      it — including inside a plain integer field the codec could
      otherwise decode — aborts recovery instead of restoring a subtly
      wrong kernel;
    - the log layout: {!Persist.Wal} frames whose record 0 is always a
      checkpoint carrying a kernel image and whose later records are
      deltas, each starting with the kernel's own tag byte (tag 0 is
      reserved for the checkpoint);
    - group commit: a mandatory record flushes at once, together with
      any queued lazy tail; lazy records flush when [group] of them
      have accumulated;
    - compaction: after 512 delta records the log is rewritten as one
      fresh checkpoint ({!Sim.Disk.reset_to}), purely count-based and
      hence deterministic;
    - recovery: scan, restore the leading checkpoint, replay the deltas
      with appends suppressed, and turn every integrity or divergence
      failure into a typed [Error].

    Crash points in this simulation are event boundaries, so a record
    appended and flushed inside the same engine callback as its
    operation is atomic with it. *)

type t

val create : group:int -> Sim.Disk.t -> t
(** A journal on [disk] whose lazy records flush in groups of [group]
    (the bank passes [~group:1] and flushes every record anyway).  The
    device is not written until the first {!checkpoint}.
    @raise Invalid_argument when [group < 1]. *)

val disk : t -> Sim.Disk.t

val image : (Persist.Codec.W.t -> 'a -> unit) -> 'a -> string
(** [image encode x] is [x]'s state as one CRC-trailed record: the
    payload of checkpoint records, and the unit of atomic restore. *)

val restore_image : (Persist.Codec.R.t -> unit) -> string -> (unit, string) result
(** [restore_image restore s] checks [s]'s CRC and runs [restore] over
    its body (which must consume it exactly).  [Error] on a CRC
    mismatch or malformed bytes; the target may then be partially
    restored.  Never raises on corrupt input. *)

val checkpoint : t -> image:string -> unit
(** Atomically replace the whole log with one checkpoint record
    carrying [image] (an {!image}) and reset the bookkeeping: the log
    now describes exactly the state [image] captures. *)

val append :
  t -> flush:bool -> image:(unit -> string) -> (Persist.Codec.W.t -> unit) -> unit
(** [append j ~flush ~image writer] logs one delta record whose bytes
    [writer] produces.  [~flush:true] makes it (and any queued lazy
    records) durable at once; a lazy record waits for the group to
    fill or for the next mandatory one.  After the 512th delta since
    the last checkpoint the log is compacted to [image ()], which must
    capture the state {e after} this record's transition.  A no-op
    while {!recover} is replaying. *)

val recover :
  t ->
  restore:(Persist.Codec.R.t -> unit) ->
  replay:(Persist.Codec.R.t -> unit) ->
  (unit, string) result
(** Rebuild the owner from the device's durable bytes: scan them
    ({!Persist.Wal.scan}), stopping at the first torn or corrupt frame;
    require record 0 to be a checkpoint and restore its image through
    [restore]; then hand each delta record's reader to [replay], which
    must consume it exactly.  {!append} is suppressed throughout.
    [Error] on an empty log, a first record that is not a checkpoint,
    a corrupt image, and a replay that raises [Persist.Codec.Corrupt],
    [Failure] or [Invalid_argument]; never raises those.  On success
    {!replayed} is the number of delta records replayed.  The log
    itself is left as found: the owner checkpoints once it has taken
    its post-recovery step. *)

val power_cut : t -> unit
(** {!Sim.Disk.power_cut} on the device. *)

val appended : t -> int
(** Delta records written over the journal's lifetime (checkpoints
    excluded). *)

val replayed : t -> int
(** Delta records replayed by the most recent successful {!recover}. *)

val encode_state : Persist.Codec.W.t -> t -> unit
val restore_state : Persist.Codec.R.t -> t -> unit
(** Snapshot capture and in-place restore of the device and the log
    bookkeeping (next frame number, queued lazy records, deltas since
    the last checkpoint, the two counters).  The group size is
    configuration, rebuilt by whoever re-creates the journal.  Restore
    raises [Persist.Codec.Corrupt] on malformed input. *)

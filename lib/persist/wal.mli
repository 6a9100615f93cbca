(** Write-ahead-log record framing.

    A WAL is a string of consecutive {e frames}, each wrapping one
    opaque payload: a little-endian [u32] sequence number, the
    length-prefixed payload bytes, and a [u32] CRC-32 over everything
    before it.  Sequence numbers start at [0] and are contiguous, so a
    replayed, reordered or spliced record is a {!Corrupt} scan verdict,
    not a silently accepted one.

    This module is pure string plumbing — it knows nothing about disks
    or kernels.  {!Sim.Disk} provides the fault-injected device the
    frames land on; [Zmail.Journal] owns the log built from them
    (checkpoint record 0, group commit, compaction, recovery), and
    [Zmail.Isp] and [Zmail.Bank] define what the delta payloads
    mean.

    {!scan} is the recovery primitive: it walks the log from the
    front, returning every intact record up to the first torn
    (truncated mid-frame) or corrupt (bad CRC, wrong sequence) byte,
    together with the clean byte length to truncate the device to.
    Damage never propagates backward: a fault in frame [k] cannot
    change how frames [0..k-1] decode, because each frame's bounds are
    determined only by bytes inside it and each CRC covers exactly its
    own frame. *)

val frame : seq:int -> string -> string
(** [frame ~seq payload] is the wire form of one record.
    @raise Invalid_argument on a negative [seq] or one that does not
    fit 32 bits. *)

type verdict =
  | Clean  (** Every byte belonged to an intact record. *)
  | Torn of int
      (** The log ends mid-frame at this byte offset — the classic
          torn final record of a power cut. *)
  | Corrupt of int
      (** The frame starting at this byte offset fails its CRC or
          carries the wrong sequence number (bit rot, splicing). *)

type scan = {
  records : string list;  (** Intact payloads, in append order. *)
  clean_bytes : int;
      (** Length of the valid prefix; recovery truncates the device
          here. *)
  verdict : verdict;
}

val scan : string -> scan
(** Walk a log from byte 0, expecting sequence numbers [0, 1, 2, ...].
    Stops at the first torn or corrupt frame; everything before it is
    returned intact.  Never raises. *)

(** E19: Byzantine bank wire — adversaries on the accounting links.
    Two tables plus a federation column:

    - a wire-adversary × fault-level grid: a
      {!Zmail.Adversary.Bank_wire} tap on ISP 2's bank link forges,
      replays, reorders or drops its envelopes under calm, lossy and
      partitioned meshes.  Every ISP is honest, so every cell must show
      zero convictions and zero e-penny residue ([Failure] otherwise);
    - a Byzantine-shard column: member banks clearing over a chaotic
      mesh while one bank over-issues, skims or lies in the audit.  It
      must be flagged, its members cleared, the carry drained and
      federation money exact in every cell.

    [full] raises the grid to 100 ISPs × 1000 users and 16 banks (the
    nightly configuration); the default is 10 × 100 and 4 banks. *)

val run :
  ?obs:Obs.Run.t ->
  ?persist:Checkpoint.t ->
  ?seed:int ->
  ?full:bool ->
  unit ->
  Sim.Table.t list

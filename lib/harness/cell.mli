(** What the experiment cells share, defined once: the drive-and-drain
    tail with its "every checker ran" oracle (E2–E4 and E16–E21), the
    Zipf mail workload, fault levels, partition schedule and world
    config of the adversary grids (E18, E19, E21), the grid and
    metrics-table plumbing, and the §4.4 readings of audit rounds. *)

(** {1 Driving a cell} *)

val retire : tag:string -> exempt:string list -> Obs.Invariant.t list -> unit
(** Fail with ["<tag>: checker <name> never ran"] if a checker not named
    in [exempt] made no checks, and detach each checker so the next
    cell's events on a shared tracer do not feed this cell's models.
    Checkers are visited in order. *)

val drain :
  tag:string ->
  Checkpoint.t ->
  label:string ->
  world:Zmail.World.t ->
  days:float ->
  Obs.Invariant.t list ->
  unit
(** Drive [world] for [days] through {!Checkpoint.drive}, run it until
    quiet, check the invariants at quiescence, then {!retire} the
    checkers with no exemptions.  A violation is printed with its
    trace context on stderr and re-raised. *)

(** {1 Workload} *)

type tally = { mutable attempts : int; mutable paid : int }

val zipf_mail :
  Zmail.World.t ->
  n_isps:int ->
  users_per_isp:int ->
  sends_per_user:int ->
  days:float ->
  tally
(** The adversary grids' sender workload: [n_isps * users_per_isp *
    sends_per_user] sends from {!Sim.Workload.zipf_senders} (s = 1.1,
    stride from 97) to uniform other users, on a 16-generator
    {!Sim.Workload.fleet} over [days] with a 13 s stagger, all drawn
    from the world engine's root generator.  The tally counts attempts
    and paid submissions as the sends fire. *)

(** {1 Fault levels} *)

type fault_level = {
  flabel : string;
  mesh : Sim.Fault.plan;  (** The world's default SMTP mesh plan. *)
  partitioned : bool;  (** Apply {!partition_windows}. *)
}

val fault_levels : fault_level list
(** ["calm"] (reliable mesh), ["lossy"] (5% drop, 10% delayed up to
    2 s) and ["partitioned"] (2% drop, 5% delayed, plus the
    {!partition_windows}). *)

val partition_windows : n_isps:int -> Sim.Fault.Mesh.partition list
(** ISPs 2 and 3 severed from the bank and everyone else over
    0.3–0.95 d (the 0.5 d and 0.75 d audit rounds of a 6 h period, so
    the carry matrix spans a multi-round lag) and again over
    1.45–1.55 d, around the 1.5 d round after a healed interval. *)

val grid_config :
  seed:int ->
  tracer:Obs.Trace.t ->
  n_isps:int ->
  users_per_isp:int ->
  audit_period:float ->
  fault_level ->
  Zmail.World.config
(** The adversary grids' world: audits every [audit_period], no
    retained mail,
    {!Zmail.Isp.scale_pools} on every ISP, the level's mesh plan and,
    when it is partitioned, the {!partition_windows}. *)

(** {1 Grids} *)

val grid :
  'a list -> 'b list -> (int -> 'a -> 'b -> 'c) -> ('a * 'b * 'c) list
(** [grid rows cols run] runs [run k row col] for every pair, row-major,
    with [k] the pair's position (cells seed themselves [seed + k]). *)

val with_metrics :
  Obs.Run.t -> Sim.Table.t list -> Sim.Table.t list -> Sim.Table.t list
(** [with_metrics obs tables metrics] appends the last of the cells'
    [metrics] tables to [tables] under [--metrics]. *)

(** {1 Reading audit rounds} *)

type rounds = (float * Zmail.Bank.audit_result) list
(** [World.audit_results_timed]: completed rounds with their times. *)

val sum_rounds : rounds -> (Zmail.Bank.audit_result -> int) -> int

val first_round : rounds -> (Zmail.Bank.audit_result -> bool) -> float option
(** Time of the first round satisfying the predicate. *)

val day_of : float option -> string
(** ["day 0.26"] or ["never"]. *)

val convictions : compliant:bool array -> Zmail.Bank.audit_result -> int list
(** Strict-majority convictions of one round: {!Audit.Verify.offenders}
    over the ISPs that were present, i.e. compliant and not in
    [r.absent].  Unlike [r.suspects] there is no fallback to the
    implicated set, which is investigation, not conviction. *)

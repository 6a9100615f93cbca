(** Sender workloads shared by the scale and grid experiments.

    Two pieces: a Zipf sender pick whose heavy ranks are scattered
    across the user space, and a fleet of self-rescheduling Poisson
    generators that spends a fixed send budget over a time span.  Both
    draw only from the generator they are handed, in a fixed order, so
    a world driven by them stays a pure function of its seed. *)

val coprime_stride : int -> from:int -> int
(** [coprime_stride universe ~from] is the first integer [>= from]
    coprime to [universe].  Multiplying a rank by it permutes
    [0 .. universe-1]. *)

type senders
(** A Zipf sender sampler over a user space of [universe] ids. *)

val zipf_senders : universe:int -> s:float -> stride_from:int -> senders
(** Ranks follow [Dist.zipf ~n:universe ~s]; rank [r] maps to user
    [(r - 1) * stride mod universe] with [stride = coprime_stride
    universe ~from:stride_from], so the heaviest senders land on
    arbitrary ISPs instead of piling onto the first one.  The O(universe)
    table is built once here. *)

val sender : senders -> Rng.t -> int
(** One rank draw, mapped through the stride. *)

val other : Rng.t -> universe:int -> int -> int
(** [other rng ~universe g] draws a user uniformly from
    [0 .. universe-1] minus [g] (one [uniform_int] draw). *)

val pair : senders -> Rng.t -> int * int
(** [(g, other rng ~universe g)] with [g = sender senders rng]: the rank
    draw comes first, then the target draw. *)

val fleet :
  Engine.t ->
  total:int ->
  generators:int ->
  span:float ->
  stagger:float ->
  (unit -> unit) ->
  unit
(** Schedule [total] calls of the send thunk on [min generators total]
    self-rescheduling generators.  Generator [i] starts at
    [i * stagger] seconds, carries [total / n] sends (the first
    [total mod n] generators one more) and waits an exponential gap
    between sends, at a rate that spends its budget over the first 90%
    of [span] seconds.  Each step calls the thunk, then draws its gap
    from the engine's root generator.  The pending-event heap stays at
    O(generators) instead of O(total). *)

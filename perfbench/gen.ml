(* Workload inputs: the send schedule of each workload, generated from
   the benchmark's own seed.  A schedule is three parallel arrays over
   global user ids ([isp * users_per_isp + user]); times are absolute
   simulated seconds, non-decreasing.  The program under test only
   ever sees the generated sends, fed one by one through
   [Zmail.World.send_email]. *)

type schedule = { at : float array; src : int array; dst : int array }

let length s = Array.length s.at
let empty = { at = [||]; src = [||]; dst = [||] }

(* Each workload draws from its own tagged stream of the seed, so two
   workloads with the same seed still get unrelated inputs. *)
let rng ~seed ~tag = Sim.Rng.stream ~seed ~tag

let other_user rng ~universe g =
  let t = Sim.Dist.uniform_int rng ~lo:0 ~hi:(universe - 2) in
  if t >= g then t + 1 else t

(* A Poisson arrival process of exactly [n] sends with mean spacing
   [span /. n]: a fixed budget (so every seed does the same amount of
   work) over a horizon that varies only by the sampling noise of the
   gaps. *)
let poisson_times rng ~n ~span =
  let rate = float_of_int n /. span in
  let t = ref 0. in
  Array.init n (fun _ ->
      t := !t +. Sim.Dist.exponential rng ~rate;
      !t)

let uniform ~seed ~tag ~universe ~n ~span =
  let rng = rng ~seed ~tag in
  let at = poisson_times rng ~n ~span in
  let src = Array.init n (fun _ -> Sim.Dist.uniform_int rng ~lo:0 ~hi:(universe - 1)) in
  let dst = Array.map (fun g -> other_user rng ~universe g) src in
  { at; src; dst }

(* A multiplier coprime to [universe] scatters Zipf ranks across the
   user space (as E17 does), so the heavy senders land on arbitrary
   ISPs instead of piling onto ISP 0. *)
let stride_for universe =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rec find c = if gcd c universe = 1 then c else find (c + 1) in
  find 7919

let zipf ~seed ~tag ~universe ~n ~span ~s =
  let rng = rng ~seed ~tag in
  let at = poisson_times rng ~n ~span in
  let rank = Sim.Dist.zipf ~n:universe ~s in
  let stride = stride_for universe in
  let src = Array.init n (fun _ -> (rank rng - 1) * stride mod universe) in
  let dst = Array.map (fun g -> other_user rng ~universe g) src in
  { at; src; dst }

let equal a b = a.at = b.at && a.src = b.src && a.dst = b.dst

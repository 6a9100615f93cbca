let coprime_stride universe ~from =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rec find c = if gcd c universe = 1 then c else find (c + 1) in
  find from

type senders = { universe : int; stride : int; rank : Rng.t -> int }

let zipf_senders ~universe ~s ~stride_from =
  {
    universe;
    stride = coprime_stride universe ~from:stride_from;
    rank = Dist.zipf ~n:universe ~s;
  }

let sender z rng = (z.rank rng - 1) * z.stride mod z.universe

let other rng ~universe g =
  let t = Dist.uniform_int rng ~lo:0 ~hi:(universe - 2) in
  if t >= g then t + 1 else t

let pair z rng =
  let g = sender z rng in
  (g, other rng ~universe:z.universe g)

let fleet engine ~total ~generators ~span ~stagger send =
  let rng = Engine.rng engine in
  let n = Stdlib.min generators total in
  if n > 0 then begin
    let per_gen = total / n in
    let rate = float_of_int per_gen /. (0.9 *. span) in
    for i = 0 to n - 1 do
      let budget = per_gen + if i < total mod n then 1 else 0 in
      let rec step remaining () =
        if remaining > 0 then begin
          send ();
          ignore
            (Engine.schedule_after engine
               ~delay:(Dist.exponential rng ~rate)
               (step (remaining - 1)))
        end
      in
      ignore
        (Engine.schedule_after engine ~delay:(float_of_int i *. stagger)
           (step budget))
    done
  end

(** Order statistics and regression bounds.

    [percentile] is nearest-rank (the quantile is always an observed
    value); [median] and [quartiles] follow Python's [statistics]
    module ([statistics.median], [statistics.quantiles(n=4)] with the
    default exclusive method), so a spread computed here matches one
    computed from the same numbers in Python. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(** Nearest-rank quantile, [q] in [0, 1]; [nan] on no samples. *)
let percentile (xs : float array) (q : float) : float =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else
    let a = sorted xs in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median (xs : float array) : float =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else
    let a = sorted xs in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** First and third quartile; needs two samples. *)
let quartiles (xs : float array) : (float * float) option =
  let n = Array.length xs in
  if n < 2 then None
  else
    let a = sorted xs in
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    Some (q 1, q 3)

(** Interquartile range as a share of the median. *)
let spread (xs : float array) : float option =
  match quartiles xs with
  | Some (q1, q3) when median xs <> 0. ->
    Some ((q3 -. q1) /. Float.abs (median xs))
  | _ -> None

type better = Lower | Higher

(** How much worse [now] is than [base], as a share of [base]
    (negative when it improved). *)
let worse_share ~better ~base ~now =
  if base = 0. then if now = base then 0. else Float.infinity
  else
    match better with
    | Lower -> (now -. base) /. Float.abs base
    | Higher -> (base -. now) /. Float.abs base

(** [now] is within [bound] of [base]: worse by at most that share, or
    by at most the absolute [floor] (for metrics whose baseline is so
    small that timer granularity dominates a relative bound). *)
let within ~better ~bound ?(floor = 0.) ~base ~now () =
  worse_share ~better ~base ~now <= bound
  || (match better with Lower -> now -. base | Higher -> base -. now) <= floor

(** Domain pool: a pool of OCaml 5 domains draining a shared task counter
    over an array of independent tasks. Used by the compiler's parallel
    per-module builds ([Cas_compiler.Driver.compile_all]) and the
    linker's per-module re-validation; the model checker's work-stealing
    frontier ([Cas_mc.Frontier]) takes only [default_jobs] from here.

    [jobs = 1] is the deterministic fallback: tasks run sequentially, in
    order, on the calling domain — no domain is spawned and results are
    bit-for-bit reproducible. With [jobs > 1] tasks are claimed with an
    atomic fetch-and-add (a degenerate work-stealing deque: one shared
    bottom), which is ample at the tens-of-tasks granularity the callers
    produce (compilation units, linked modules). *)

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(** Run every task, returning results in task order. *)
let run ~jobs (tasks : (unit -> 'a) list) : 'a list =
  let jobs = max 1 jobs in
  if jobs = 1 then List.map (fun f -> f ()) tasks
  else begin
    let arr = Array.of_list tasks in
    let n = Array.length arr in
    let results : 'a option array = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (arr.(i) ());
          loop ()
        end
      in
      loop ()
    in
    let helpers = min (jobs - 1) (max 0 (n - 1)) in
    let doms = List.init helpers (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join doms;
    Array.to_list results |> List.filter_map Fun.id
  end

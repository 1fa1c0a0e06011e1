(** Witness export: Chrome trace-event JSON (loadable in Perfetto or
    chrome://tracing) and the human-readable [casc explain] rendering.

    The Chrome format is the "JSON array format" subset: one complete
    duration event ([ph:"X"]) per schedule step on the lane of its
    thread, metadata events naming the lanes, and an instant event
    ([ph:"i"]) marking the verdict at the end. Timestamps are synthetic —
    step index in microseconds — since a model-checking schedule has no
    wall-clock; what matters in the UI is the interleaving shape. *)

open Cas_base

let us_per_step = 10
let dur_us = 8

let step_name (s : Witness.step) =
  match s.Witness.s_event with
  | Some e -> Event.to_string e
  | None ->
    if s.Witness.s_flush then "flush"
    else if s.Witness.s_writes <> [] then "write"
    else if s.Witness.s_reads <> [] then "read"
    else "step"

let addr_list addrs =
  Json.Str (String.concat "," (List.map Addr.to_string addrs))

let step_event idx (s : Witness.step) =
  Json.Obj
    (List.concat
       [
         [
           ("name", Json.Str (step_name s));
           ("ph", Json.Str "X");
           ("pid", Json.Int 0);
           ("tid", Json.Int s.Witness.s_tid);
           ("ts", Json.Int (idx * us_per_step));
           ("dur", Json.Int dur_us);
           ( "cat",
             Json.Str
               (if s.Witness.s_flush then "flush"
                else if s.Witness.s_event <> None then "event"
                else "step") );
         ];
         [
           ( "args",
             Json.Obj
               (List.concat
                  [
                    (if s.Witness.s_reads = [] then []
                     else [ ("reads", addr_list s.Witness.s_reads) ]);
                    (if s.Witness.s_writes = [] then []
                     else [ ("writes", addr_list s.Witness.s_writes) ]);
                    (if s.Witness.s_dst = "" then []
                     else [ ("dst", Json.Str s.Witness.s_dst) ]);
                  ]) );
         ];
       ])

let thread_meta tid =
  Json.Obj
    [
      ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int 0);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str (Fmt.str "T%d" tid)) ]);
    ]

let verdict_marker n (v : Witness.verdict) =
  let name = Fmt.str "%a" Witness.pp_verdict v in
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "i");
      ("pid", Json.Int 0);
      ( "tid",
        Json.Int
          (match v with Witness.Vrace (t1, _) -> t1 | _ -> 0) );
      ("ts", Json.Int (n * us_per_step));
      ("s", Json.Str "g");
    ]

(** The witness as a Chrome trace-event JSON document. *)
let chrome (w : Witness.t) : Json.t =
  let tids =
    List.sort_uniq Int.compare
      (List.map (fun (s : Witness.step) -> s.Witness.s_tid) w.Witness.steps)
  in
  let process_meta =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 0);
        ( "args",
          Json.Obj
            [
              ( "name",
                Json.Str
                  (Fmt.str "casc %s (%s)" w.Witness.engine
                     (Witness.semantics_to_string w.Witness.semantics)) );
            ] );
      ]
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          ((process_meta :: List.map thread_meta tids)
          @ List.mapi step_event w.Witness.steps
          @ [ verdict_marker (List.length w.Witness.steps) w.Witness.verdict ]
          ) );
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [
            ("version", Json.Str w.Witness.version);
            ("prog_hash", Json.Str w.Witness.prog_hash);
          ] );
    ]

let save_chrome (w : Witness.t) ~(file : string) : unit =
  Json.save ~file (chrome w)

(* ------------------------------------------------------------------ *)
(* casc explain                                                        *)
(* ------------------------------------------------------------------ *)

let pp_fp ppf (s : Witness.step) =
  match (s.Witness.s_reads, s.Witness.s_writes) with
  | [], [] -> ()
  | rs, ws ->
    Fmt.pf ppf "  {%s%s}"
      (match rs with
      | [] -> ""
      | _ -> "r:" ^ String.concat "," (List.map Addr.to_string rs))
      (match ws with
      | [] -> ""
      | _ ->
        (if rs = [] then "w:" else " w:")
        ^ String.concat "," (List.map Addr.to_string ws))

(** Human-readable rendering of the interleaving: one line per step,
    indented by thread lane, context switches marked in the margin. *)
let explain ppf (w : Witness.t) =
  Fmt.pf ppf "%a@." Witness.pp w;
  Fmt.pf ppf "program %s, entries [%s]%s@." w.Witness.prog_hash
    (String.concat "; " w.Witness.entries)
    (if w.Witness.with_lock then " +lock" else "");
  let tids =
    List.sort_uniq Int.compare
      (List.map (fun (s : Witness.step) -> s.Witness.s_tid) w.Witness.steps)
  in
  let lane tid =
    let rec idx i = function
      | [] -> 0
      | t :: _ when t = tid -> i
      | _ :: r -> idx (i + 1) r
    in
    idx 0 tids
  in
  let prev = ref min_int in
  List.iteri
    (fun n (s : Witness.step) ->
      let sw = !prev <> min_int && !prev <> s.Witness.s_tid in
      prev := s.Witness.s_tid;
      Fmt.pf ppf "%4d %s %sT%d %s%s%a@." n
        (if sw then ">>" else "  ")
        (String.make (4 * lane s.Witness.s_tid) ' ')
        s.Witness.s_tid (step_name s)
        (if s.Witness.s_flush then " [flush]" else "")
        pp_fp s)
    w.Witness.steps;
  Fmt.pf ppf "==> %a after %d steps (%d context switches)@."
    Witness.pp_verdict w.Witness.verdict
    (List.length w.Witness.steps)
    (Witness.switches w)

(** casc — the CASCompCert command-line driver.

    Subcommands:
    - [compile FILE]: compile a mini-C module, print requested IRs;
    - [build FILE -o M.cao]: compile one module into a certified object
      file — code, symbol tables, and the digest-chained certificate of
      its per-pass simulations ([Cas_link.Objfile]);
    - [link M.cao N.cao -o prog.cai [--certify] [--jobs N]]: resolve
      symbols and link certified objects into an image, composing the
      per-module certificates by checking the linking lemma's premises
      (Lem. 6); incremental — unchanged objects re-certify from cache;
    - [run FILE --entry f [--entry g] [--lock]]: run a program under the
      preemptive SC semantics (entries become threads; [--lock] links the
      γ_lock object so clients can call lock/unlock);
    - [drf FILE ...]: run the race predictor (FILE may be a linked
      [.cai] image);
    - [check FILE ...]: execute the full Fig. 2 framework pipeline;
    - [sim FILE --entry f]: per-pass footprint-preserving simulation;
    - [tso FILE ...]: compile and run against the TTAS spin lock on the
      x86-TSO machine, and check the strengthened DRF-guarantee;
    - [repro FILE --out W.json]: capture a counterexample schedule as a
      self-contained witness file ([Cas_diag]);
    - [replay W.json [--shrink] [--trace T.json]]: deterministically
      re-execute a witness, optionally minimizing it and exporting a
      Chrome/Perfetto trace;
    - [fuzz --seed S --count N]: generate random programs and run them
      through the differential oracles, bucketing outcomes into a triage
      report and back-translating divergences into minimal CImp repros;
    - [explain W.json]: render a witness interleaving for humans;
    - [serve]: run cascd, the certification daemon ([Cas_serve]);
    - [client REQUEST [FILE...]]: send one request to a running cascd.

    [drf] and [tso] also take [--witness FILE] to capture on failure.
    compile, sim, link, drf and tso run [Cas_cmd]'s commands, as cascd
    does; this file reads and writes their files and prints results. *)

open Cmdliner
open Cas_base
open Cas_langs
open Cas_conc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* a JSON string literal, for the compact one-line [--json] outputs *)
let json_string s = Cas_diag.Json.(to_string (Str s))

let ( let* ) = Result.bind
let ( let+ ) r f = Result.map f r

(* Every file casc writes goes through here, so that an unwritable path
   is an error exit, not an uncaught exception. A [Sys_error] message
   names the path that failed (for an atomic save, a temporary file
   beside FILE) before its reason. *)
let write_file ~file (save : file:string -> unit) : unit =
  try save ~file
  with Sys_error msg ->
    let reason = List.hd (List.rev (String.split_on_char ':' msg)) in
    Fmt.epr "error: cannot write %s: %s@." file (String.trim reason);
    exit 1

(* FILE's source text and its parse; errors name the file. *)
let parse_file file : (string * Clight.program, Cas_cmd.error) result =
  match read_file file with
  | exception Sys_error e -> Error (Cas_cmd.Failed e)
  | text ->
    Result.map (fun client -> (text, client)) (Cas_cmd.parse ~origin:file text)

(* FILE as a program: a linked image (.cai), or mini-C source. *)
let program file ~entries ~with_lock =
  let+ code =
    if Filename.check_suffix file Cas_link.Image.extension then
      match Cas_link.Image.load ~file with
      | Ok img -> Ok (Cas_cmd.Image img)
      | Error e -> Error (Cas_cmd.Failed (file ^ ": " ^ e))
    else
      let+ text, client = parse_file file in
      Cas_cmd.Source { text; client }
  in
  Cas_cmd.program ~with_lock ~entries code

(* casc's end of a command: an error is printed as casc prints errors,
   and the exit code is [Cas_cmd]'s for a verdict [ok]. *)
let exit_with ok r =
  Result.iter_error (Fmt.epr "%a@." Cas_cmd.pp_error) r;
  Cas_cmd.exit_code ok r

let always _ = true
let fail e = exit_with always (Error e)

(* ------------------------------------------------------------------ *)
(* Arguments                                                            *)
(* ------------------------------------------------------------------ *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"mini-C source file")

let entries_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "e"; "entry" ] ~docv:"FUNC"
        ~doc:
          "entry function; repeat to spawn several threads (default: main, \
           or the recorded entry points when FILE is a linked .cai image)")

let with_lock_arg =
  Arg.(
    value & flag
    & info [ "lock" ] ~doc:"link the CImp lock object (lock/unlock callable)")

let engine_arg =
  let engine_conv =
    Arg.enum (List.map (fun e -> (Engine.to_string e, e)) Engine.all)
  in
  Arg.(
    value
    & opt engine_conv Engine.Naive
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "exploration engine: $(b,naive) (exhaustive BFS/DFS, the oracle), \
           $(b,dpor) (footprint-guided dynamic partial-order reduction), or \
           $(b,dpor-par) (DPOR with root branches on parallel domains)")

(* shared by [drf]/[tso] (dpor-par workers) and [compile] (parallel
   per-module builds): a jobs count below 1 is a hard error, not a
   silent fallback *)
let jobs_conv : int Arg.conv =
  let parse s =
    match int_of_string_opt s with
    | None ->
      Error (`Msg (Fmt.str "invalid jobs count %S (expected an integer)" s))
    | Some n when n < 1 ->
      Error (`Msg (Fmt.str "jobs count must be at least 1, got %d" n))
    | Some n -> Ok n
  in
  Arg.conv (parse, Fmt.int)

let jobs_arg =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "worker domains: for $(b,dpor-par) exploration (default: cores - \
           1) and for $(b,compile) per-module builds (default: 1); must be \
           at least 1")

(* oversubscribing --jobs is never an error (the schedulers are
   correct at any count) but it is never what the user wants either:
   extra domains contend on the deques and the canonical store instead
   of exploring.  Warn once, on stderr, and keep the requested count. *)
let validate_jobs (jobs : int option) : int option =
  Option.iter
    (fun j ->
      let cores = Domain.recommended_domain_count () in
      if j > cores then
        Fmt.epr
          "warning: --jobs %d exceeds the %d core%s available; extra domains \
           contend rather than explore@."
          j cores
          (if cores = 1 then "" else "s"))
    jobs;
  jobs

let paranoid_arg =
  Arg.(
    value & flag
    & info [ "paranoid-fp" ]
        ~doc:
          "key explored states by their full fingerprint strings instead of \
           the fixed-width hash keys (slower; empirically rules out hash \
           collisions — verdicts and world counts must not change); with \
           $(b,compile --certify) or $(b,sim), additionally audit every \
           core the simulation checker visits, at every pipeline stage, by \
           cross-checking its streamed hash against its fingerprint string")

(* --paranoid-fp's choice of state keys for exploration *)
let keys paranoid =
  if paranoid then Cas_mc.Mcsys.Fingerprint else Cas_mc.Mcsys.Hash

let witness_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "witness" ] ~docv:"FILE"
        ~doc:"on a negative verdict, write a replayable witness here")

let ir_arg =
  let stages =
    [
      ("clight", `Clight);
      ("csharpminor", `Csharpminor);
      ("cminor", `Cminor);
      ("rtl", `Rtl);
      ("ltl", `Ltl);
      ("linear", `Linear);
      ("mach", `Mach);
      ("asm", `Asm);
    ]
  in
  Arg.(
    value
    & opt (some (enum stages)) None
    & info [ "ir" ] ~docv:"STAGE"
        ~doc:"print this IR: clight, csharpminor, cminor, rtl, ltl, linear, \
              mach, asm (default: asm)")

(* --cache DIR and --no-cache: where the certificate cache persists.
   Evaluating the term points the cache at DIR; its value is DIR, or
   None with --no-cache. *)
let cache_term =
  let cache_dir_arg =
    Arg.(
      value
      & opt string ".casc-cache"
      & info [ "cache" ] ~docv:"DIR"
          ~doc:"certificate-cache directory (persists across invocations)")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"disable the certificate cache entirely")
  in
  let set dir no_cache =
    if not no_cache then Cas_compiler.Cache.set_default_dir (Some dir);
    if no_cache then None else Some dir
  in
  Term.(const set $ cache_dir_arg $ no_cache_arg)

(* ------------------------------------------------------------------ *)
(* compile                                                              *)
(* ------------------------------------------------------------------ *)

let print_ir (a : Cas_compiler.Driver.artifacts) ir =
  let open Cas_compiler.Driver in
  match Option.value ~default:`Asm ir with
      | `Clight ->
        List.iter
          (fun f -> Fmt.pr "%s:@.  %a@." f.Clight.fname Clight.pp_stmt f.Clight.fbody)
          a.clight_simpl.Clight.funcs
      | `Csharpminor ->
        List.iter
          (fun f ->
            Fmt.pr "%s:@.  %a@." f.Csharpminor.fname Csharpminor.pp_stmt
              f.Csharpminor.fbody)
          a.csharpminor.Csharpminor.funcs
      | `Cminor ->
        List.iter
          (fun f ->
            Fmt.pr "%s (stack %d):@.  %a@." f.Cminor.fname f.Cminor.stacksize
              Cminor.pp_stmt f.Cminor.fbody)
          a.cminorsel.Cminor.funcs
      | `Rtl -> Fmt.pr "%a@." Fmt.(list ~sep:cut Rtl.pp_func) a.rtl_cse.Rtl.funcs
      | `Ltl ->
        Fmt.pr "%a@." Fmt.(list ~sep:cut Ltl.pp_func) a.ltl_tunneled.Ltl.funcs
      | `Linear ->
        Fmt.pr "%a@."
          Fmt.(list ~sep:cut Linearl.pp_func)
          a.linear_clean.Linearl.funcs
      | `Mach ->
        Fmt.pr "%a@." Fmt.(list ~sep:cut Machl.pp_func) a.mach.Machl.funcs
      | `Asm -> Fmt.pr "%a" Cas_cmd.pp_compile a

let per_function_counts = Cascompcert.Framework.per_function_counts

let compile_cmd =
  let run files ir stats json jobs certify cache_dir paranoid =
    let jobs = Option.value ~default:1 jobs in
    (* one collision audit across the certifications of every unit *)
    let audit = if certify && paranoid then Some (Lang.audit ()) else None in
    let use_cache = cache_dir <> None in
    let parsed = List.map (fun f -> (f, parse_file f)) files in
    match List.find_map (function _, Error e -> Some e | _ -> None) parsed with
    | Some e -> fail e
    | None ->
      let units =
        List.filter_map
          (function f, Ok (_, c) -> Some (f, c) | _, Error _ -> None)
          parsed
      in
      (* linking the units later would shadow one definition silently, so
         a cross-unit duplicate is a hard error here, with both files
         named (the same check the linker does on .cao exports) *)
      let duplicate =
        let seen = Hashtbl.create 16 in
        List.fold_left
          (fun acc (file, c) ->
            List.fold_left
              (fun acc (name, _) ->
                match Hashtbl.find_opt seen name with
                | Some first -> (
                  match acc with
                  | None -> Some (name, first, file)
                  | some -> some)
                | None ->
                  Hashtbl.add seen name file;
                  acc)
              acc
              (Lang.defs (Lang.Mod (Clight.lang, c))))
          None units
      in
      match duplicate with
      | Some (sym, file1, file2) ->
        Fmt.epr "error: duplicate definition of %s: defined by both %s and %s@."
          sym file1 file2;
        1
      | None ->
      let results =
        Cas_compiler.Driver.compile_all ~cache:use_cache ~jobs
          (List.map snd units)
      in
      let all_sim_ok = ref true in
      let json_units = ref [] in
      List.iter2
        (fun (file, client) (c : Cas_compiler.Driver.compiled) ->
          if stats then begin
            Fmt.pr "@[<v>unit %s:@,  source unit context %s@,  asm output    \
                    hash %s@]@."
              file c.Cas_compiler.Driver.c_context
              c.Cas_compiler.Driver.c_asm_digest;
            List.iter
              (fun st ->
                Fmt.pr "  %a@." Cas_compiler.Driver.pp_pass_stat st)
              c.Cas_compiler.Driver.c_stats
          end;
          if certify then begin
            let c = Cas_cmd.certify ?audit client in
            if not c.Cas_cmd.sim_ok then all_sim_ok := false;
            Fmt.pr "%a" (Cas_cmd.pp_certify ~indent:"  ") c;
            let fns = per_function_counts c.Cas_cmd.reports in
            if stats then
              List.iter
                (fun (fn, (v, hits, s)) ->
                  Fmt.pr "  function %-12s %d/%d verdicts cached, %d checker \
                          steps@."
                    fn hits v s)
                fns;
            if json then
              json_units :=
                Fmt.str {|{"file":%s,"functions":[%s]}|} (json_string file)
                  (String.concat ","
                     (List.map
                        (fun (fn, (v, hits, s)) ->
                          Fmt.str
                            {|{"name":%s,"verdicts":%d,"cached":%d,"steps":%d}|}
                            (json_string fn) v hits s)
                        fns))
                :: !json_units;
            Fmt.pr
              "  certificates: %d/%d verdicts from cache, %d checker steps \
               executed@."
              c.Cas_cmd.cached (List.length c.Cas_cmd.reports) c.Cas_cmd.steps
          end;
          if ir <> None || not (stats || certify || json) then
            print_ir
              (Cas_compiler.Driver.compile_artifacts ~cache:use_cache client)
              ir)
        units results;
      if json then
        Fmt.pr {|{"units":[%s]}|} (String.concat "," (List.rev !json_units));
      if json then Fmt.pr "@.";
      Option.iter
        (fun audit ->
          match Lang.audit_collisions audit with
          | [] -> Fmt.pr "paranoid-fp: no hash collisions observed@."
          | (a, b) :: _ as l ->
            Fmt.epr
              "paranoid-fp: %d hash collision%s detected, e.g. %S vs %S@."
              (List.length l)
              (if List.length l = 1 then "" else "s")
              a b;
            all_sim_ok := false)
        audit;
      if stats then begin
        let hits, misses =
          List.fold_left
            (fun (h, m) (s : Cas_compiler.Cache.stats) ->
              (h + s.Cas_compiler.Cache.hits, m + s.Cas_compiler.Cache.misses))
            (0, 0)
            (Cas_compiler.Driver.cache_stats ())
        in
        Fmt.pr "certificate cache: %d hits, %d misses%s@." hits misses
          (match cache_dir with
          | Some dir -> " (dir: " ^ dir ^ ")"
          | None -> " (disabled)")
      end;
      if !all_sim_ok then 0 else 2
  in
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:"mini-C source files (one compilation unit each)")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "print per-pass wall-clock timings, cache hit/miss outcomes and \
             content hashes instead of the IR")
  in
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "also run (or fetch from the certificate cache) the per-pass \
             footprint-preserving simulation verdicts")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "with --certify, also emit one machine-readable JSON line with \
             per-function verdict/cache-hit/checker-step counts")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "compile mini-C modules separately (content-addressed cache, \
          parallel with --jobs) and print an IR or --stats")
    Term.(
      const run $ files_arg $ ir_arg $ stats_arg $ json_arg $ jobs_arg
      $ certify_arg $ cache_term $ paranoid_arg)

(* ------------------------------------------------------------------ *)
(* build / link (certified object files, Cas_link)                      *)
(* ------------------------------------------------------------------ *)

let build_cmd =
  let run file out name no_opt cache_dir =
    let name =
      match name with
      | Some n -> n
      | None -> Filename.remove_extension (Filename.basename file)
    in
    let out =
      Option.value ~default:(name ^ Cas_link.Objfile.extension) out
    in
    match read_file file with
    | exception Sys_error e ->
      Fmt.epr "error: %s@." e;
      1
    | source -> (
      let options = { Cas_compiler.Pass.optimize = not no_opt } in
      match
        Cas_link.Objfile.build ~options ~cache:(cache_dir <> None) ~name
          ~source ()
      with
      | Error e ->
        Fmt.epr "error: %a@." Fmt.lines e;
        2
      | Ok o ->
        write_file ~file:out (Cas_link.Objfile.save o);
        Fmt.pr "%s: %d export%s, %d import%s, %d verdicts, body %s@." out
          (List.length o.Cas_link.Objfile.o_exports)
          (if List.length o.Cas_link.Objfile.o_exports = 1 then "" else "s")
          (List.length o.Cas_link.Objfile.o_imports)
          (if List.length o.Cas_link.Objfile.o_imports = 1 then "" else "s")
          (List.length o.Cas_link.Objfile.o_cert.Cas_link.Cert.verdicts)
          o.Cas_link.Objfile.o_body_digest;
        0)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"output object file (default: $(i,MODULE).cao)")
  in
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"MODULE"
          ~doc:"module name recorded in the object (default: FILE basename)")
  in
  let no_opt_arg =
    Arg.(
      value & flag
      & info [ "no-opt" ] ~doc:"disable the optional optimization passes")
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "compile one mini-C module into a certified object file (.cao): \
          code, symbol tables, and the digest-chained certificate of its \
          per-pass footprint-preserving simulations")
    Term.(
      const run $ file_arg $ out_arg $ name_arg $ no_opt_arg $ cache_term)

(* The last line of [casc link] and of [casc client link]. *)
let pp_wrote ppf (file, (img : Cas_link.Image.t)) =
  Fmt.pf ppf "wrote %s (image %s%s)" file img.Cas_link.Image.i_digest
    (if img.Cas_link.Image.i_certified then ", certified" else "")

let link_cmd =
  let run files out entries certify jobs stats (_ : string option) =
    match
      match List.map read_file files with
      | exception Sys_error e -> Error (Cas_cmd.Failed e)
      | objects -> Cas_cmd.link ?jobs ~files ~certify ~entries objects
    with
    | Error e -> fail e
    | Ok o ->
      write_file ~file:out (Cas_link.Image.save o.Cas_link.Linker.lk_image);
      Fmt.pr "%a" Cas_cmd.pp_link o;
      if stats then begin
        Fmt.pr "link: %a@." Cas_link.Linker.pp_stats
          o.Cas_link.Linker.lk_stats;
        Option.iter
          (fun (r : Cascompcert.Framework.compose_report) ->
            List.iter
              (fun (m : Cascompcert.Framework.compose_module_report) ->
                Fmt.pr "  function %s.%-12s %s, %d checker steps@."
                  m.Cascompcert.Framework.cm_module
                  m.Cascompcert.Framework.cm_entry
                  (if m.Cascompcert.Framework.cm_cached then "hit" else "miss")
                  m.Cascompcert.Framework.cm_steps)
              r.Cascompcert.Framework.comp_modules)
          o.Cas_link.Linker.lk_compose;
        List.iter
          (fun s -> Fmt.pr "  %a@." Cas_compiler.Cache.pp_stats s)
          (Cas_compiler.Cache.global_stats ())
      end;
      Fmt.pr "%a@." pp_wrote (out, o.Cas_link.Linker.lk_image);
      0
  in
  let objs_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"OBJ" ~doc:"certified object files (.cao)")
  in
  let out_arg =
    Arg.(
      value
      & opt string ("prog" ^ Cas_link.Image.extension)
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"output image file")
  in
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "compose the per-module certificates into a whole-program \
             certificate: re-validate each module's simulation (cached by \
             object digest), check footprint confinement to freelists, and \
             co-execute the linked source and target at the boundary \
             (Lem. 6)")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"print linker and certificate-cache statistics")
  in
  Cmd.v
    (Cmd.info "link"
       ~doc:
         "resolve symbols across certified objects and link them into an \
          image (.cai), optionally composing their certificates")
    Term.(
      const run $ objs_arg $ out_arg $ entries_arg $ certify_arg $ jobs_arg
      $ stats_arg $ cache_term)

(* ------------------------------------------------------------------ *)
(* Witness plumbing (Cas_diag)                                          *)
(* ------------------------------------------------------------------ *)

(** Rebuild the replayable semantics a witness was captured against,
    entirely from the witness (the program source is embedded). *)
let sem_of_witness (w : Cas_diag.Witness.t) :
    (Cas_diag.Sem.state, Cas_cmd.error) result =
  let text = w.Cas_diag.Witness.program in
  let* client = Cas_cmd.parse ~origin:"embedded program" text in
  let p =
    Cas_cmd.program ~with_lock:w.Cas_diag.Witness.with_lock
      ~entries:w.Cas_diag.Witness.entries
      (Cas_cmd.Source { text; client })
  in
  match w.Cas_diag.Witness.semantics with
  | Cas_diag.Witness.Sc -> Result.map Cas_diag.Sem.sc (Cas_cmd.load p)
  | Cas_diag.Witness.Tso ->
    Result.map (fun (_, w) -> Cas_diag.Sem.tso w) (Cas_cmd.machine p)

(** The witness file to capture into, with the source to embed: a
    linked image has no source, so it gets none. *)
let capture_target (p : Cas_cmd.program) file =
  match (p.Cas_cmd.code, file) with
  | _, None -> None
  | Cas_cmd.Source { text; _ }, Some file -> Some (file, text)
  | Cas_cmd.Image _, Some _ ->
    Fmt.epr
      "warning: witness capture needs the source program and is not \
       supported for linked images@.";
    None

(** The witness of a failing [schedule] of program [p], whose source is
    [text]. *)
let witness ~text (p : Cas_cmd.program) ~semantics ~engine ~seed
    ((verdict, steps) : Cas_cmd.schedule) =
  Cas_diag.Witness.make ~program:text ~entries:p.Cas_cmd.entries
    ~with_lock:p.Cas_cmd.with_lock ~semantics
    ~engine:(Engine.to_string engine) ~seed ~verdict steps

let save_witness (w : Cas_diag.Witness.t) ~file =
  write_file ~file (Cas_diag.Witness.save w);
  Fmt.pr "witness written to %s (%a)@." file Cas_diag.Witness.pp w

(* ------------------------------------------------------------------ *)
(* run / drf                                                            *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let run file entries with_lock compiled =
    exit_with always
      (let* text, client = parse_file file in
       let+ w =
         Cas_cmd.load ~compiled
           (Cas_cmd.program ~with_lock ~entries
              (Cas_cmd.Source { text; client }))
       in
       let tr, _ = Engine.traces w in
       Fmt.pr "observable traces (%s):@.%a@."
         (if tr.Explore.complete then "complete" else "bounded")
         Explore.TraceSet.pp tr.Explore.traces)
  in
  let compiled_arg =
    Arg.(value & flag & info [ "compiled" ] ~doc:"run the compiled x86 instead")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"run threads under the preemptive SC semantics")
    Term.(const run $ file_arg $ entries_arg $ with_lock_arg $ compiled_arg)

let drf_cmd =
  (* --json emits only the steal-invariant facts of a run: verdict,
     engine, distinct-world count, and the canonical (minimal-key)
     witness.  Steal counts and wall time are deliberately absent —
     three runs of [casc drf --json] at any jobs count must be
     byte-identical, and CI holds us to that. *)
  let drf_json (r : Race.drf_report) : Cas_diag.Json.t =
    let open Cas_diag.Json in
    let st = r.Race.engine_stats in
    let witness =
      match (r.Race.witness_world, r.Race.witness) with
      | Some w, Some wt -> Str (Race.witness_key w wt)
      | _ -> Null
    in
    Obj
      [
        ("drf", Bool r.Race.drf);
        ("engine", Str st.Cas_mc.Stats.engine);
        ("worlds", Int st.Cas_mc.Stats.worlds);
        ("witness", witness);
      ]
  in
  let drf_json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "print the verdict as a JSON object of steal-invariant fields \
             (drf, engine, worlds, witness key) instead of the human \
             report; byte-identical across runs at any $(b,--jobs) count")
  in
  let run file entries with_lock engine jobs json witness_out paranoid =
    let jobs = validate_jobs jobs in
    exit_with
      (fun (d : Cas_cmd.drf) -> d.Cas_cmd.report.Race.drf)
      (let* p = program file ~entries ~with_lock in
       let target = capture_target p witness_out in
       let+ d =
         Cas_cmd.drf ~engine ?jobs ~keys:(keys paranoid)
           ~capture:(target <> None) p
       in
       Option.iter
         (fun (file, text) ->
           match d.Cas_cmd.race with
           | None -> Fmt.pr "DRF: no witness written@."
           | Some s ->
             save_witness ~file
               (witness ~text p ~semantics:Cas_diag.Witness.Sc ~engine
                  ~seed:0 s))
         target;
       let r = d.Cas_cmd.report in
       if json then Fmt.pr "%s@." (Cas_diag.Json.to_string (drf_json r))
       else Fmt.pr "%a" (Cas_cmd.pp_drf ~engine_line:true) r;
       d)
  in
  Cmd.v
    (Cmd.info "drf" ~doc:"exhaustive data-race detection (Fig. 9)")
    Term.(
      const run $ file_arg $ entries_arg $ with_lock_arg $ engine_arg
      $ jobs_arg $ drf_json_arg $ witness_out_arg $ paranoid_arg)

(* ------------------------------------------------------------------ *)
(* check / sim / tso                                                    *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let run file entries with_lock =
    exit_with
      (fun r -> r.Cascompcert.Framework.all_ok)
      (let+ text, client = parse_file file in
       let p =
         Cas_cmd.program ~with_lock ~entries (Cas_cmd.Source { text; client })
       in
       let input =
         {
           Cascompcert.Framework.name = Filename.basename file;
           clients = [ client ];
           objects = (if with_lock then [ Cimp.gamma_lock () ] else []);
           entries = p.Cas_cmd.entries;
         }
       in
       let r = Cascompcert.Framework.check_fig2 input in
       Fmt.pr "%a@." Cascompcert.Framework.pp_run r;
       r)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"run the full Fig. 2 framework pipeline")
    Term.(const run $ file_arg $ entries_arg $ with_lock_arg)

let sim_cmd =
  let run file paranoid =
    exit_with
      (fun ((c : Cas_cmd.certify), collisions) ->
        collisions = [] && c.Cas_cmd.sim_ok)
      (let+ _, client = parse_file file in
       let audit = if paranoid then Some (Lang.audit ()) else None in
       let c = Cas_cmd.certify ?audit client in
       Fmt.pr "%a" (Cas_cmd.pp_certify ~indent:"") c;
       let collisions =
         Option.fold ~none:[] ~some:Lang.audit_collisions audit
       in
       (match collisions with
       | [] -> if paranoid then Fmt.pr "paranoid-fp: no hash collisions observed@."
       | (a, b) :: _ ->
         Fmt.epr "paranoid-fp: hash collision detected: %S vs %S@." a b);
       (c, collisions))
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"check the footprint-preserving simulation for every pass")
    Term.(const run $ file_arg $ paranoid_arg)

let tso_cmd =
  let run file entries engine jobs witness_out paranoid =
    let jobs = validate_jobs jobs in
    exit_with
      (fun (t : Cas_cmd.tso) -> t.Cas_cmd.guarantee.Cas_tso.Objsim.holds)
      (let* p = program file ~entries ~with_lock:false in
       let target = capture_target p witness_out in
       let+ t = Cas_cmd.tso ~engine ?jobs ~keys:(keys paranoid) p in
       Fmt.pr "%a" (Cas_cmd.pp_tso ~engine_line:true) t.Cas_cmd.guarantee;
       (match target with
       | Some (file, text) when not t.Cas_cmd.guarantee.Cas_tso.Objsim.holds
         -> (
         match Cas_cmd.tso_failure t with
         | Some s ->
           save_witness ~file
             (witness ~text p ~semantics:Cas_diag.Witness.Tso ~engine ~seed:0
                s)
         | None ->
           Fmt.epr "no schedule found for the failure: no witness written@.")
       | _ -> ());
       t)
  in
  Cmd.v
    (Cmd.info "tso"
       ~doc:"run compiled code against the TTAS lock on the x86-TSO machine")
    Term.(
      const run $ file_arg $ entries_arg $ engine_arg $ jobs_arg
      $ witness_out_arg $ paranoid_arg)

(* ------------------------------------------------------------------ *)
(* repro / replay / explain                                             *)
(* ------------------------------------------------------------------ *)

let out_arg =
  Arg.(
    value
    & opt string "witness.json"
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"output witness file")

let shrink_arg =
  Arg.(
    value & flag
    & info [ "shrink" ]
        ~doc:"minimize the schedule (ddmin + run merging) before writing")

let shrink_budget_arg =
  Arg.(
    value
    & opt int Cas_diag.Shrink.default_max_attempts
    & info [ "shrink-budget" ] ~docv:"N"
        ~doc:
          "candidate-execution budget for ddmin schedule shrinking \
           (default 2000)")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"export a Chrome trace-event JSON (open in Perfetto)")

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N" ~doc:"seed recorded in the witness header")

let tso_flag_arg =
  Arg.(
    value & flag
    & info [ "tso" ]
        ~doc:
          "capture against the x86-TSO machine (compiled client + TTAS \
           lock) instead of the SC race predictor")

let shrink_and_save wit ~do_shrink ~shrink_budget ~out ~trace =
  let wit =
    if not do_shrink then wit
    else
      match sem_of_witness wit with
      | Error e ->
        Fmt.epr "shrink: cannot rebuild the semantics: %s@."
          (Cas_cmd.message e);
        wit
      | Ok s0 ->
        let r = Cas_diag.Shrink.shrink ~max_attempts:shrink_budget s0 wit in
        Fmt.pr "%a@." Cas_diag.Shrink.pp_report r;
        r.Cas_diag.Shrink.sh_witness
  in
  save_witness wit ~file:out;
  Option.iter
    (fun tfile ->
      write_file ~file:tfile (Cas_diag.Export.save_chrome wit);
      Fmt.pr "trace written to %s@." tfile)
    trace

let repro_cmd =
  let run file entries with_lock tso engine jobs seed out do_shrink
      shrink_budget trace =
    let witness =
      let* text, client = parse_file file in
      (* the x86-TSO machine links the TTAS lock, never γ_lock *)
      let p =
        Cas_cmd.program ~with_lock:(with_lock && not tso) ~entries
          (Cas_cmd.Source { text; client })
      in
      let+ schedule =
        if tso then
          let+ t = Cas_cmd.tso ~engine ?jobs p in
          let g = t.Cas_cmd.guarantee in
          Fmt.pr "Lemma 16: %a@." Cas_tso.Objsim.pp_guarantee g;
          if g.Cas_tso.Objsim.holds then None else Cas_cmd.tso_failure t
        else
          let+ d = Cas_cmd.drf ~engine ?jobs ~capture:true p in
          Fmt.pr "%a" (Cas_cmd.pp_drf ~engine_line:false) d.Cas_cmd.report;
          match d.Cas_cmd.race with
          | Some s -> Some s
          | None ->
            (* DRF: an abort schedule is still a counterexample *)
            Option.map
              (fun steps -> (Cas_diag.Witness.Vabort, steps))
              (Cas_diag.Capture.schedule_to_abort
                 (Cas_diag.Sem.sc d.Cas_cmd.world)
                 ())
      in
      let semantics =
        if tso then Cas_diag.Witness.Tso else Cas_diag.Witness.Sc
      in
      Option.map (witness ~text p ~semantics ~engine ~seed) schedule
    in
    match witness with
    | Error e -> fail e
    | Ok None ->
      Fmt.pr "no counterexample found: nothing to capture@.";
      1
    | Ok (Some wit) ->
      shrink_and_save wit ~do_shrink ~shrink_budget ~out ~trace;
      0
  in
  Cmd.v
    (Cmd.info "repro"
       ~doc:
         "capture a counterexample (race, abort, or TSO refinement \
          failure) as a self-contained replayable witness")
    Term.(
      const run $ file_arg $ entries_arg $ with_lock_arg $ tso_flag_arg
      $ engine_arg $ jobs_arg $ seed_arg $ out_arg $ shrink_arg
      $ shrink_budget_arg $ trace_arg)

let witness_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"WITNESS" ~doc:"witness JSON file")

let replay_cmd =
  let run file do_shrink shrink_budget trace out =
    match Cas_diag.Witness.load ~file with
    | Error e ->
      Fmt.epr "error: %s: %s@." file e;
      1
    | Ok wit -> (
      if wit.Cas_diag.Witness.version <> Cas_base.Version.v then
        Fmt.epr
          "warning: witness captured by version %s, this is %s — a \
           mismatch below may just mean the tool changed@."
          wit.Cas_diag.Witness.version Cas_base.Version.v;
      if
        Cas_diag.Witness.hash_program wit.Cas_diag.Witness.program
        <> wit.Cas_diag.Witness.prog_hash
      then begin
        Fmt.epr "error: embedded program does not match its recorded hash@.";
        1
      end
      else
        match sem_of_witness wit with
        | Error e -> fail e
        | Ok s0 ->
          let o = Cas_diag.Replay.run s0 wit in
          Fmt.pr "replay %s: %s (%d/%d steps, events [%a])@." file
            o.Cas_diag.Replay.detail o.Cas_diag.Replay.steps_matched
            (List.length wit.Cas_diag.Witness.steps)
            Fmt.(list ~sep:comma Event.pp)
            o.Cas_diag.Replay.events;
          if not o.Cas_diag.Replay.ok then 2
          else begin
            (if do_shrink || trace <> None || out <> None then
               let out = Option.value ~default:file out in
               shrink_and_save wit ~do_shrink ~shrink_budget ~out ~trace);
            0
          end)
  in
  let out_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"write the (possibly shrunk) witness here (default: in place)")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "re-execute a witness schedule step by step, verifying events, \
          footprints and target worlds against the recording")
    Term.(
      const run $ witness_file_arg $ shrink_arg $ shrink_budget_arg
      $ trace_arg $ out_opt_arg)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let run seed count size budget lang json out_dir shrink_budget
      paranoid_every inject engine_par =
    let engine_par = validate_jobs engine_par in
    match Cas_fuzz.Gen.lang_of_string lang with
    | Error e ->
      Fmt.epr "error: %s@." e;
      2
    | Ok lang ->
      let progress ~index bucket =
        if bucket <> Cas_fuzz.Driver.Agree then
          Fmt.epr "[%04d] %s@." index (Cas_fuzz.Driver.bucket_name bucket)
      in
      let rep =
        (* an [out_dir] that cannot be used or written: [msg] names the
           path *)
        try
          Cas_fuzz.Driver.run ~size ~budget ~shrink_budget ~paranoid_every
            ~inject ?engine_par ?out_dir ~progress ~seed ~count lang
        with Sys_error msg ->
          Fmt.epr "error: cannot write %s@." msg;
          exit 1
      in
      Fmt.pr "%a@." Cas_fuzz.Driver.pp_report rep;
      List.iter
        (fun (c : Cas_fuzz.Driver.case) ->
          Fmt.pr "  case %04d [%s]: %s%a%a@." c.Cas_fuzz.Driver.c_index
            (Cas_fuzz.Driver.bucket_name c.Cas_fuzz.Driver.c_bucket)
            c.Cas_fuzz.Driver.c_detail
            Fmt.(option (fmt " — repro %s"))
            c.Cas_fuzz.Driver.c_repro
            Fmt.(option (fmt " (replay: %s)"))
            c.Cas_fuzz.Driver.c_replay)
        rep.Cas_fuzz.Driver.r_cases;
      (match json with
      | Some file ->
        write_file ~file (fun ~file ->
            Cas_diag.Json.save ~file (Cas_fuzz.Driver.report_to_json rep));
        Fmt.pr "triage report written to %s@." file
      | None -> ());
      (* an [--inject] campaign is *expected* to diverge — its exit code
         reports whether the pipeline handled the divergences *)
      if Cas_fuzz.Driver.clean rep || inject then 0 else 1
  in
  let fseed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"campaign seed (determines everything)")
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"number of programs to generate")
  in
  let size_arg =
    Arg.(
      value & opt int 8
      & info [ "size" ] ~docv:"N" ~doc:"program size budget (statements)")
  in
  let budget_arg =
    Arg.(
      value & opt int 20_000
      & info [ "budget" ] ~docv:"T"
          ~doc:
            "per-oracle exploration budget (worlds for the race search, \
             paths for trace enumeration); exhausting it buckets the \
             program as a timeout")
  in
  let lang_arg =
    Arg.(
      value & opt string "clight"
      & info [ "lang" ] ~docv:"LANG"
          ~doc:
            "generated language: $(b,clight) (full differential pipeline) \
             or $(b,cimp) (engine + fingerprint oracles only)")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"write the deterministic triage report as JSON")
  in
  let out_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:
            "write offending programs and back-translated minimal repros \
             here")
  in
  let paranoid_every_arg =
    Arg.(
      value & opt int 50
      & info [ "paranoid-every" ] ~docv:"N"
          ~doc:
            "run the paranoid fingerprint spot-check on every Nth program \
             (0 disables)")
  in
  let engine_par_arg =
    Arg.(
      value
      & opt (some jobs_conv) None
      & info [ "engine-par" ] ~docv:"N"
          ~doc:
            "add a fourth oracle lane: re-run every program under \
             $(b,dpor-par) on $(i,N) domains and require the same verdict \
             and the same world count as sequential dpor (the visited \
             world set is steal-invariant)")
  in
  let inject_arg =
    Arg.(
      value & flag
      & info [ "inject" ]
          ~doc:
            "deliberately miscompile (bump the first print argument fed to \
             the compiler) to exercise the divergence → shrink → \
             back-translate → replay pipeline")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "generate random programs and run them through the differential \
          oracles (source vs compiled traces, naive vs DPOR verdicts and \
          world counts, paranoid fingerprint spot-checks), bucketing \
          outcomes into a triage report and back-translating every \
          divergence into a minimal CImp repro")
    Term.(
      const run $ fseed_arg $ count_arg $ size_arg $ budget_arg $ lang_arg
      $ json_arg $ out_dir_arg $ shrink_budget_arg $ paranoid_every_arg
      $ inject_arg $ engine_par_arg)

let explain_cmd =
  let run file =
    match Cas_diag.Witness.load ~file with
    | Error e ->
      Fmt.epr "error: %s: %s@." file e;
      1
    | Ok wit ->
      Fmt.pr "%a" Cas_diag.Export.explain wit;
      0
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"render a witness interleaving as a human-readable timeline")
    Term.(const run $ witness_file_arg)

(* ------------------------------------------------------------------ *)
(* serve / client (cascd, Cas_serve)                                    *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string "casc.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on")

let serve_cmd =
  let run socket jobs queue_cap (_ : string option) delay_ms stats =
    let jobs = Option.value ~default:2 jobs in
    let cfg =
      {
        Cas_serve.Daemon.socket;
        jobs;
        queue_cap;
        delay = float_of_int delay_ms /. 1000.;
      }
    in
    match Cas_serve.Daemon.create cfg with
    | Error e ->
      Fmt.epr "error: %s@." e;
      1
    | Ok d ->
      Fmt.pr "cascd listening on %s (%d worker%s, queue cap %d)@." socket jobs
        (if jobs = 1 then "" else "s")
        queue_cap;
      let final = Cas_serve.Daemon.run d in
      if stats then Fmt.pr "%s@." (Cas_diag.Json.to_string final);
      0
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "admission control: max distinct jobs outstanding before new \
             work is rejected as overloaded")
  in
  let delay_ms_arg =
    Arg.(
      value & opt int 0
      & info [ "delay-ms" ] ~docv:"MS"
          ~doc:
            "add an artificial delay to every job (testing: widens the \
             in-flight window so coalescing is observable)")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"print the final metrics document (JSON) on exit")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "run cascd, the certification daemon: batches, dedups and caches \
          compile/certify/link/drf/tso requests over a Unix-domain socket \
          until SIGTERM or a shutdown request")
    Term.(
      const run $ socket_arg $ jobs_arg $ queue_cap_arg $ cache_term
      $ delay_ms_arg $ stats_arg)

let client_cmd =
  let run socket kind files entries with_lock certify out =
    let source_of f =
      match read_file f with
      | s -> Ok s
      | exception Sys_error e -> Error e
    in
    let kind_of () : (Cas_serve.Protocol.kind, string) result =
      let open Cas_serve.Protocol in
      match (kind, files) with
      | "ping", [] -> Ok Ping
      | "metrics", [] -> Ok Metrics
      | "shutdown", [] -> Ok Shutdown
      | "compile", [ f ] ->
        Result.map (fun source -> Compile { source }) (source_of f)
      | "certify", [ f ] ->
        Result.map (fun source -> Certify { source }) (source_of f)
      | "drf", [ f ] ->
        Result.map
          (fun source -> Drf { source; entries; with_lock })
          (source_of f)
      | "tso", [ f ] ->
        Result.map (fun source -> Tso { source; entries }) (source_of f)
      | "link", (_ :: _ as objs) ->
        let rec read acc = function
          | [] -> Ok (Link { objects = List.rev acc; entries; certify })
          | o :: rest -> (
            match source_of o with
            | Error e -> Error e
            | Ok s -> read (s :: acc) rest)
        in
        read [] objs
      | ("ping" | "metrics" | "shutdown"), _ :: _ ->
        Error (Fmt.str "%s takes no FILE argument" kind)
      | ("compile" | "certify" | "drf" | "tso"), _ ->
        Error (Fmt.str "%s takes exactly one FILE argument" kind)
      | "link", [] -> Error "link needs at least one .cao FILE"
      | k, _ ->
        Error
          (Fmt.str
             "unknown request %S (expected ping, compile, certify, link, \
              drf, tso, metrics or shutdown)"
             k)
    in
    let fail msg =
      Fmt.epr "error: %s@." msg;
      1
    in
    match kind_of () with
    | Error e -> fail e
    | Ok k -> (
      match
        Cas_serve.Client.with_connection ~socket (fun c ->
            Cas_serve.Client.request c k)
      with
      | Error e | Ok (Error e) -> fail e
      | Ok (Ok resp) -> (
        let open Cas_serve.Protocol in
        match resp.status with
        | Serror -> fail (payload_message resp.payload)
        | Soverloaded | Sdraining ->
          Fmt.epr "error: %s@." (payload_message resp.payload);
          3
        | Sok -> (
          match k with
          | Metrics ->
            Fmt.pr "%s@." (Cas_diag.Json.to_string resp.payload);
            0
          | Ping | Shutdown ->
            Fmt.pr "%s@." (payload_text resp.payload);
            0
          | Compile _ ->
            print_string (payload_text resp.payload);
            0
          | Certify _ ->
            print_string (payload_text resp.payload);
            if payload_bool "sim_ok" resp.payload then 0 else 2
          | Drf _ ->
            print_string (payload_text resp.payload);
            if payload_bool "drf" resp.payload then 0 else 2
          | Tso _ ->
            print_string (payload_text resp.payload);
            if payload_bool "holds" resp.payload then 0 else 2
          | Link _ -> (
            print_string (payload_text resp.payload);
            match Cas_diag.Json.member_opt "image" resp.payload with
            | Some (Cas_diag.Json.Str img) -> (
              (* re-encode through [Image.save] so the written file is
                 byte-identical to one-shot [casc link]'s (atomic, same
                 trailing layout) *)
              match Cas_link.Image.of_string img with
              | Error e -> fail ("image: " ^ e)
              | Ok img ->
                write_file ~file:out (Cas_link.Image.save img);
                Fmt.pr "%a@." pp_wrote (out, img);
                0)
            | _ -> 0))))
  in
  let kind_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST"
          ~doc:
            "one of: ping, compile, certify, link, drf, tso, metrics, \
             shutdown")
  in
  let files_arg =
    Arg.(
      value & pos_right 0 file []
      & info [] ~docv:"FILE"
          ~doc:
            "mini-C source (compile/certify/drf/tso) or .cao objects (link); \
             contents are sent to the daemon, which never reads the \
             filesystem")
  in
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:"with link: compose the per-module certificates (Lem. 6)")
  in
  let out_arg =
    Arg.(
      value
      & opt string ("prog" ^ Cas_link.Image.extension)
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"with link: where to write the returned image")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "send one request to a running casc serve daemon and print the \
          response (verdict text is byte-identical to the corresponding \
          one-shot casc command)")
    Term.(
      const run $ socket_arg $ kind_arg $ files_arg $ entries_arg
      $ with_lock_arg $ certify_arg $ out_arg)

let () =
  let doc = "certified-separate-compilation playground (CASCompCert reproduction)" in
  let info = Cmd.info "casc" ~version:Cas_base.Version.v ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            compile_cmd;
            build_cmd;
            link_cmd;
            run_cmd;
            drf_cmd;
            check_cmd;
            sim_cmd;
            tso_cmd;
            repro_cmd;
            replay_cmd;
            fuzz_cmd;
            explain_cmd;
            serve_cmd;
            client_cmd;
          ]))

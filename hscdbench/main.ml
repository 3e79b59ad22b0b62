(** The repository benchmark: one workload, one process, one domain.

    {v main.exe --workload sweep|scale --seed N --seconds S --trace 0|1 v}

    Prepares the workload, checks it, warms up, then replays the seed's
    op list [rounds] times with tracing off, preparing afresh before
    each round.
    With [--trace 1] it then replays the list once more through
    [Layers] and reports per-layer figures instead of end-to-end ones.
    The last line of standard output is one JSON object with [correct],
    [attempted], [failed] and [metrics]. Exit status 0 when every op and
    check passed, 1 otherwise, 2 on bad arguments. *)

module Run = Hscd_sim.Run
module Engine = Hscd_sim.Engine
module Metrics = Hscd_sim.Metrics
module W = Hscdbench.Workloads
module Layers = Hscdbench.Layers
module Stats = Hscdbench.Stats

(* Host noise only ever slows work down, so every time is the fastest
   of several. The list is replayed [rounds] times, each round after a
   fresh preparation; an op's latency is its fastest replay, both
   throughputs divide by the sum of those, and setup_s is the fastest
   preparation. A burst of noise then moves a figure only when it
   covers every round of the run. *)
let min_rounds = 3

(* the fewest ops a list may hold: p90 then has ten samples beyond it *)
let min_ops = 100

let out_dir = Filename.concat "hscdbench" "_out"

let usage () =
  prerr_endline "usage: main.exe --workload sweep|scale --seed N --seconds S --trace 0|1";
  exit 2

let secs ns = float_of_int ns *. 1e-9

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let mkdir p = if not (Sys.file_exists p) then Sys.mkdir p 0o755

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception _ -> "unknown"
  | ic ->
    let l = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    l

let failed_result (r : Engine.result) =
  r.violations <> [] || (not r.memory_ok) || r.metrics.Metrics.violations > 0

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let w = match W.find (get "workload") with Some w -> w | None -> usage () in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let traced = trace = 1 in
  (* the op list is the seed's alone; --seconds sets only how often it
     is replayed, through a fixed nominal rate, never the host's speed *)
  let ops = W.ops w ~seed ~n:min_ops in
  let n = Array.length ops in
  let rounds =
    max min_rounds (int_of_float (float_of_int seconds *. w.nominal_ops_per_s /. float_of_int n))
  in
  mkdir out_dir;
  let dir = Filename.concat out_dir (Printf.sprintf "tmp-%s-%d" w.name (Unix.getpid ())) in
  mkdir dir;
  let correct = Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* --- setup --- *)
  let prepare () =
    Run.reset_compile_cache ();
    Gc.full_major ();
    let t0 = Layers.now_ns () in
    w.prepare ~dir;
    secs (Layers.now_ns () - t0)
  in
  let setup_times = Array.make rounds (prepare ()) in
  let setup_cache = Run.compile_cache_stats () in
  let checks = ref (w.check ()) in
  let check name ok = checks := !checks @ [ (name, ok) ] in
  let warm_ok = ref true in
  (* one untimed block: every op kind once *)
  let warmup_ops = min w.strata n in
  for i = 0 to warmup_ops - 1 do
    match w.run ops.(i) with
    | r -> if failed_result r then warm_ok := false
    | exception _ -> warm_ok := false
  done;
  check "warm-up ops pass" !warm_ok;
  (* --- timed rounds, tracing off --- *)
  let lat = Array.make_matrix rounds n 0. in
  let op_time = Array.make rounds 0. in
  let digests = Array.make_matrix rounds n "" in
  let accesses = ref 0 and minor_words = ref 0. and major0 = ref 0 and major1 = ref 0 in
  let cycles = ref 0 and read_misses = ref 0 and invalidations = ref 0 and violations = ref 0 in
  let cache0 = ref setup_cache and cache1 = ref setup_cache in
  let failed = ref 0 and round_failed = Array.make rounds 0 in
  for r = 0 to rounds - 1 do
    if r > 0 then setup_times.(r) <- prepare ();
    Gc.full_major ();
    if r = 0 then begin
      cache0 := Run.compile_cache_stats ();
      major0 := (Gc.quick_stat ()).Gc.major_collections
    end;
    for i = 0 to n - 1 do
      let w0 = Gc.minor_words () in
      let t0 = Layers.now_ns () in
      let res = try Ok (w.run ops.(i)) with e -> Error e in
      let t1 = Layers.now_ns () in
      lat.(r).(i) <- secs (t1 - t0);
      match res with
      | Error e ->
        incr failed;
        round_failed.(r) <- round_failed.(r) + 1;
        digests.(r).(i) <- "raised " ^ Printexc.to_string e
      | Ok res ->
        if failed_result res then begin
          incr failed;
          round_failed.(r) <- round_failed.(r) + 1
        end;
        digests.(r).(i) <- W.digest res;
        if r = 0 then begin
          let m = res.metrics in
          minor_words := !minor_words +. (Gc.minor_words () -. w0);
          accesses := !accesses + Metrics.accesses m;
          cycles := !cycles + res.cycles;
          read_misses := !read_misses + Metrics.read_misses m;
          invalidations := !invalidations + m.Metrics.scheme_stats.Hscd_coherence.Scheme.invalidations_sent;
          violations := !violations + m.Metrics.violations
        end
    done;
    op_time.(r) <- Array.fold_left ( +. ) 0. lat.(r);
    if r = 0 then begin
      cache1 := Run.compile_cache_stats ();
      major1 := (Gc.quick_stat ()).Gc.major_collections
    end
  done;
  check "op results repeat in every round" (Array.for_all (fun d -> d = digests.(0)) digests);
  let results_digest = Digest.to_hex (Digest.string (String.concat "" (Array.to_list digests.(0)))) in
  let per_op = Array.init n (fun i -> Stats.minimum (Array.init rounds (fun r -> lat.(r).(i)))) in
  let pct p =
    match Stats.percentile p per_op with
    | Ok v -> v
    | Error msg ->
      check msg false;
      nan
  in
  let fsum = Array.fold_left ( +. ) 0. in
  (* the sum of every op's fastest replay: the base of accesses_per_s,
     of engine.<SCHEME>.ns_per_event and of trace_overhead_ratio *)
  let untraced_op_time = fsum per_op in
  let completed = n - Array.fold_left max 0 round_failed in
  let e2e =
    [
      ("setup_s", Stats.minimum setup_times, "s", Printf.sprintf "fastest of %d preparations" rounds);
      ( "accesses_per_s",
        float_of_int !accesses /. untraced_op_time,
        "1/s",
        Printf.sprintf "accesses / sum of each op's fastest replay = %d / %.4f" !accesses
          untraced_op_time );
      ( "ops_per_s",
        float_of_int completed /. untraced_op_time,
        "1/s",
        Printf.sprintf "completed ops / sum of each op's fastest replay = %d / %.4f" completed
          untraced_op_time );
      ("latency_p50_ms", 1e3 *. pct 50., "ms", Printf.sprintf "%d samples" n);
      ("latency_p90_ms", 1e3 *. pct 90., "ms", Printf.sprintf "%d samples" n);
      ("peak_rss_mb", peak_rss_mb (), "MB", "VmHWM");
    ]
  in
  (* --- traced run --- *)
  let per_layer =
    if not traced then []
    else begin
      Layers.reset ();
      Run.reset_compile_cache ();
      Layers.span "setup" (fun () -> w.prepare_traced ~dir);
      Gc.full_major ();
      let t_wall = ref 0 and same = ref true in
      for i = 0 to n - 1 do
        Layers.current_op := i;
        let t0 = Layers.now_ns () in
        let res = try Ok (Layers.span "op" (fun () -> w.run_traced ops.(i))) with e -> Error e in
        t_wall := !t_wall + (Layers.now_ns () - t0);
        match res with
        | Ok r -> if W.digest r <> digests.(0).(i) then same := false
        | Error _ -> same := false
      done;
      check "traced op results equal untraced ones" !same;
      checks := !checks @ List.rev !Layers.checks;
      let traced_op_time = secs !t_wall in
      let tot name = fst (Layers.total name) in
      let sum a = Array.fold_left ( + ) 0 a in
      let run_s = tot "engine.run" in
      let access_s = secs (sum Layers.access_ns) in
      let boundary_s = secs !Layers.boundary_ns in
      let validate_s = secs !Layers.validate_ns in
      let events = sum Layers.events in
      check "timed scheme saw every access the engine counted" (sum Layers.accesses = !accesses);
      let self_s = run_s -. access_s -. boundary_s -. validate_s in
      check "engine.self_s is non-negative" (self_s >= 0.);
      let ratio a b = if b = 0. then 0. else a /. b in
      let per_scheme =
        List.concat
          (List.mapi
             (fun k kind ->
               let s = Run.scheme_name kind in
               let create_k, creates = Layers.total ~detail:s "coherence.create" in
               (* from the untraced rounds, free of the decorator's clock
                  reads; the traced pass replays the same ops, so its
                  event count is theirs *)
               let op_k = ref 0. in
               Array.iteri (fun i op -> if W.scheme_of op = kind then op_k := !op_k +. per_op.(i)) ops;
               [
                 ( "engine." ^ s ^ ".ns_per_event",
                   1e9 *. ratio !op_k (float_of_int Layers.events.(k)),
                   "ns",
                   Printf.sprintf "untraced op time under %s / its events = %.6f / %d" s !op_k
                     Layers.events.(k) );
                 ( "coherence." ^ s ^ ".create_s",
                   ratio create_k (float_of_int creates),
                   "s",
                   Printf.sprintf "create time / creates = %.6f / %d" create_k creates );
                 ( "coherence." ^ s ^ ".access_ns",
                   1e9 *. ratio (secs Layers.access_ns.(k)) (float_of_int Layers.accesses.(k)),
                   "ns",
                   Printf.sprintf "access time / accesses = %.6f / %d" (secs Layers.access_ns.(k))
                     Layers.accesses.(k) );
               ])
             Run.extended_schemes)
      in
      let count name v = (name, float_of_int v, "count", "") in
      let gen_s = tot "trace.gen" in
      [
        ("engine.run_s", run_s, "s", "");
        ( "engine.self_s",
          self_s,
          "s",
          Printf.sprintf "run - access - boundary - validate = %.6f - %.6f - %.6f - %.6f" run_s
            access_s boundary_s validate_s );
        count "engine.events" events;
        ( "engine.self_ns_per_event",
          1e9 *. ratio self_s (float_of_int events),
          "ns",
          Printf.sprintf "engine.self_s / engine.events = %.6f / %d" self_s events );
        ( "engine.words_per_event",
          ratio !Layers.engine_words (float_of_int events),
          "words",
          Printf.sprintf "minor words in Engine.run / engine.events = %.0f / %d" !Layers.engine_words
            events );
        ("coherence.create_s", tot "coherence.create", "s", "");
        ("coherence.access_s", access_s, "s", "");
        count "coherence.accesses" !accesses;
        ("coherence.boundary_s", boundary_s, "s", "");
        ("trace_io.write_s", tot "trace_io.write", "s", "");
        ("trace_io.map_s", tot "trace_io.map", "s", "");
        ("trace_io.validate_s", validate_s, "s", "");
        count "trace_io.validated_epochs" !Layers.validated_epochs;
        ("trace.gen_s", gen_s, "s", "");
        count "trace.gen_slots" !Layers.gen_slots;
        ( "trace.gen_words_per_slot",
          ratio !Layers.gen_words (float_of_int !Layers.gen_slots),
          "words",
          Printf.sprintf "minor words in trace generation / trace.gen_slots = %.0f / %d"
            !Layers.gen_words !Layers.gen_slots );
        ("compiler.marking_s", tot "compiler.marking", "s", "");
        ("lang.sema_s", tot "lang.sema", "s", "");
        ("run.compile_s", tot "run.compile", "s", "");
        count "run.compile_cache_hits" (!cache1.memory_hits - !cache0.memory_hits);
        count "run.compile_cache_generations"
          (setup_cache.trace_generations + !cache1.trace_generations - !cache0.trace_generations);
        ( "gc.minor_words_per_op",
          !minor_words /. float_of_int n,
          "words",
          Printf.sprintf "minor words in round 1's ops / ops = %.0f / %d" !minor_words n );
        count "gc.major_collections" (!major1 - !major0);
        count "sim.cycles" !cycles;
        count "sim.read_misses" !read_misses;
        count "sim.invalidations" !invalidations;
        count "sim.violations" !violations;
        ( "trace_overhead_ratio",
          traced_op_time /. untraced_op_time,
          "ratio",
          Printf.sprintf "traced op time / untraced op time = %.4f / %.4f" traced_op_time
            untraced_op_time );
      ]
      @ per_scheme
    end
  in
  let correct = !failed = 0 && List.for_all snd !checks in
  (* --- report --- *)
  Printf.printf "# hscdbench %s  seed %d  %s\n" w.name seed (if traced then "traced" else "untraced");
  Printf.printf "host: nproc=%s recommended_domain_count=%d ocaml=%s flambda=%b\n" (nproc ())
    (Domain.recommended_domain_count ()) Sys.ocaml_version Hscdbench.Host.flambda;
  Printf.printf "ops per round=%d rounds=%d warm-up ops=%d preparations=%d (setup_s is the fastest)\n"
    n rounds warmup_ops rounds;
  Printf.printf "latency samples=%d per percentile (each op's fastest of %d rounds)\n" n rounds;
  Printf.printf "accesses per round=%d; round op time (s)=%s; preparation (s)=%s\n" !accesses
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.4f") op_time)))
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_times)));
  Printf.printf "results digest=%s\n" results_digest;
  List.iter (fun (name, ok) -> Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name) !checks;
  if traced then begin
    let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.spans.jsonl" w.name seed) in
    Layers.write_spans path;
    Printf.printf "spans: %d written to %s\n" (List.length !Layers.spans) path
  end;
  let shown = if traced then per_layer else e2e in
  List.iter
    (fun (name, v, u, base) ->
      Printf.printf "  %-34s %16.6g %-6s %s\n" name v u (if base = "" then "" else "(" ^ base ^ ")"))
    shown;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (n * rounds) !failed
    (String.concat ", "
       (List.map
          (fun (name, v, u, _) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) u)
          shown));
    correct
  in
  if not correct then exit 1

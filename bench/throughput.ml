(* Standalone engine-throughput probe: the wall-clock benches of
   bench/main.ml's part 3 without the full table regeneration — a quick
   before/after check when touching the engine or trace-generation hot
   paths.

   Flags:
     --smoke       capped workload over all seven schemes; exit 1 when a
                   packed replay is not bit-identical to the boxed one or
                   crosses its per-scheme minor-words/event ceiling, when
                   the streaming trace builder diverges from
                   boxed-generation + pack or allocates too much per
                   generated event, when a timing-knob sweep fails to
                   share compiled traces, or when a directory scheme's
                   ns/event at P=1024 exceeds 3x SC's (the @perf-smoke
                   alias)
     --json PATH   also write the measurements as JSON *)

(* replay side: the engine decodes events without constructing variants.
   Per-scheme minor-words/event ceilings over the measured smoke values
   (BASE 1.3; SC/INV/VC/TPI 5.6; HW/LimitLESS 5.7 — their sharer walks
   allocate nothing): a scheme crossing its ceiling has grown a new
   per-event allocation, not noise *)
let replay_words_cap = function
  | "BASE" -> 4.0
  | _ -> 8.0 (* the cached schemes *)

(* directory fan-out: at P=1024 a directory scheme's replay costs at most
   this multiple of SC's per event (measured ~1.3-1.5x; a presence walk
   that tests all P bits puts it at 6-12x) *)
let fanout_ratio_cap = 3.0

(* compile side: streaming generation appends into preallocated slabs, so
   per-slot allocation is interpreter overhead only (measured ~4.1 words
   at full scale, ~4.7 on the smoke workload; the boxed path is ~29) *)
let gen_words_cap = 6.0

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let json_path =
    let r = ref None in
    Array.iteri
      (fun i a -> if a = "--json" && i + 1 < Array.length Sys.argv then r := Some Sys.argv.(i + 1))
      Sys.argv;
    !r
  in
  let report =
    if smoke then
      Perf.measure ~processors:16 ~n:512 ~iters:2 ~reps:1
        ~schemes:Hscd_sim.Run.extended_schemes ()
    else Perf.measure ~schemes:Hscd_sim.Run.extended_schemes ()
  in
  Perf.print_report report;
  let gen =
    if smoke then Perf.measure_compile ~processors:16 ~n:512 ~iters:2 ~reps:1 ()
    else Perf.measure_compile ()
  in
  Perf.print_compile_row gen;
  let cache = Perf.measure_cache () in
  Perf.print_cache_row cache;
  let fanout = Perf.measure_fanout () in
  Perf.print_fanout_report fanout;
  (match json_path with
  | Some path ->
    let oc = open_out path in
    output_string oc
      (Printf.sprintf
         "{\n\"engine\": %s,\n\"tracegen\": %s,\n\"compile_cache\": %s,\n\"fanout\": %s\n}\n"
         (String.trim (Perf.report_to_json report))
         (Perf.compile_row_to_json gen)
         (Perf.cache_row_to_json cache)
         (Perf.fanout_report_to_json fanout));
    close_out oc;
    Printf.printf "  json written to %s\n%!" path
  | None -> ());
  if not smoke then Perf.compare_wall_clock ();
  let bad =
    List.filter
      (fun (r : Perf.scheme_row) ->
        (not r.identical) || r.minor_words_per_event >= replay_words_cap r.scheme)
      report.Perf.rows
  in
  List.iter
    (fun (r : Perf.scheme_row) ->
      Printf.eprintf
        "throughput: FAIL %s (identical=%b, minor_words_per_event=%.2f >= %.1f?)\n" r.scheme
        r.identical r.minor_words_per_event (replay_words_cap r.scheme))
    bad;
  let gen_bad =
    (not gen.Perf.gen_identical) || gen.Perf.gen_stream_words_per_event >= gen_words_cap
  in
  if gen_bad then
    Printf.eprintf
      "throughput: FAIL tracegen (identical=%b, minor_words_per_event=%.2f >= %.1f?)\n"
      gen.Perf.gen_identical gen.Perf.gen_stream_words_per_event gen_words_cap;
  if not cache.Perf.cache_ok then
    Printf.eprintf
      "throughput: FAIL compile cache (second sweep point regenerated traces: %d generations, \
       %d hits)\n"
      cache.Perf.cache_generations cache.Perf.cache_hits;
  let fanout_bad =
    match fanout.Perf.fo_rows with
    | sc :: directories (* SC's row comes first *) ->
      List.filter_map
        (fun (row : Perf.fanout_row) ->
          let ratio = row.Perf.fo_ns_per_event /. sc.Perf.fo_ns_per_event in
          if ratio > fanout_ratio_cap then Some (row, sc, ratio) else None)
        directories
    | [] -> []
  in
  List.iter
    (fun ((row : Perf.fanout_row), (sc : Perf.fanout_row), ratio) ->
      Printf.eprintf
        "throughput: FAIL fan-out %s at P=%d: %.0f ns/event is %.2fx %s's %.0f (cap %.1fx)\n"
        row.Perf.fo_scheme fanout.Perf.fo_processors row.Perf.fo_ns_per_event ratio
        sc.Perf.fo_scheme sc.Perf.fo_ns_per_event fanout_ratio_cap)
    fanout_bad;
  if bad <> [] || gen_bad || (not cache.Perf.cache_ok) || fanout_bad <> [] then exit 1

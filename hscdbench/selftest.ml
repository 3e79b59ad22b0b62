(* Self-tests of the benchmark's own machinery. *)

module W = Hscdbench.Workloads
module Stats = Hscdbench.Stats

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL " ^ s); exit 1) fmt

(* the op kinds and knob values of a list, each as a sorted column *)
let mix ops =
  let ops = Array.to_list ops in
  let cells =
    List.filter_map
      (function
        | W.Cell { model; cache_kb; assoc; timetag_bits; _ } -> Some [ model; cache_kb; assoc; timetag_bits ]
        | W.Replay _ -> None)
      ops
  in
  ( List.sort compare (List.map (fun op -> Hscd_sim.Run.scheme_name (W.scheme_of op)) ops),
    List.init 4 (fun i -> List.sort compare (List.map (fun c -> List.nth c i) cells)) )

let () =
  List.iter
    (fun (w : W.t) ->
      let a = W.ops w ~seed:7 ~n:200 and b = W.ops w ~seed:7 ~n:200 in
      if a <> b then fail "%s: seed 7 gave two different op lists" w.name;
      if W.ops w ~seed:8 ~n:200 = a then fail "%s: seeds 7 and 8 gave the same op list" w.name;
      let longer = W.ops w ~seed:7 ~n:(Array.length a + 1) in
      if Array.sub longer 0 (Array.length a) <> a then
        fail "%s: a longer list does not extend the shorter one" w.name;
      if Array.length a mod w.strata <> 0 then fail "%s: the list is not whole blocks" w.name;
      if mix (W.ops w ~seed:8 ~n:200) <> mix a then
        fail "%s: seeds 7 and 8 gave different mixes of op kinds and knobs" w.name)
    W.all;
  let samples n = Array.init n float_of_int in
  (match Stats.percentile 90. (samples 99) with
   | Ok _ -> fail "p90 of 99 samples accepted with only 9 beyond it"
   | Error _ -> ());
  (match Stats.percentile 90. (samples 100) with
   | Ok v when v = 89. -> ()
   | Ok v -> fail "p90 of 0..99 is %g, expected 89" v
   | Error e -> fail "p90 of 100 samples refused: %s" e);
  (match Stats.percentile 50. (samples 19) with
   | Ok _ -> fail "p50 of 19 samples accepted with only 9 beyond it"
   | Error _ -> ());
  if Stats.minimum [| 3.; 1.; 2.; 10. |] <> 1. then fail "minimum of 3,1,2,10 is not 1";
  print_endline "hscdbench selftest: ok"

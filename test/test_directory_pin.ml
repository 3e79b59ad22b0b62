(** Golden pins for the directory schemes' answers. A cross-implementation
    check (packed ≡ boxed) cannot see a change to the presence-vector walks
    or the sharer count that moves both sides at once; these constants
    come from the original per-bit presence walk, and every directory
    implementation must reproduce them exactly.

    - A P=1024 stencil replayed as the benchmark's [scale] workload does
      (8 KB two-way caches): cycles, misses, the miss classes, and the
      protocol counters, under HW and LimitLESS.
    - A seeded access stream at P=64 with tiny caches, driven straight
      into LimitLESS: lines gain and lose sharers through reads, writes
      and evictions, so the overflow test (and its trap count) depends on
      the sharer count staying exact through every presence change. *)

module Config = Hscd_arch.Config
module Event = Hscd_arch.Event
module Run = Hscd_sim.Run
module Engine = Hscd_sim.Engine
module Scheme = Hscd_coherence.Scheme
module Limitless = Hscd_coherence.Limitless
module Prng = Hscd_util.Prng

let scale_cfg =
  Config.validate { Config.default with processors = 1024; cache_bytes = 8 * 1024; assoc = 2 }

let scale_trace =
  lazy
    (Run.compile ~cfg:scale_cfg ~cache:false (Hscd_workloads.Kernels.jacobi1d ~n:2048 ~iters:2 ()))
      .Run.packed_trace

(* Both directory schemes give the same answer here: the stencil never
   puts more than LimitLESS's ten pointers' worth of sharers on a line *)
let pin_scale kind () =
  let r = Run.simulate_packed ~cfg:scale_cfg kind (Lazy.force scale_trace) in
  let m = r.Engine.metrics in
  let s = m.scheme_stats in
  Alcotest.(check int) "cycles" 1682 r.cycles;
  Alcotest.(check int) "read misses" 4089 m.read_miss_count;
  Alcotest.(check (array int)) "read classes" [| 8187; 511; 0; 512; 3066; 0; 0; 0 |]
    m.read_classes;
  Alcotest.(check (array int)) "write classes" [| 3584; 2558; 0; 1022; 3068; 0; 0; 0 |]
    m.write_classes;
  Alcotest.(check int) "invalidations sent" 8691 s.invalidations_sent;
  Alcotest.(check int) "dirty recalls" 7672 s.dirty_recalls;
  Alcotest.(check int) "upgrades" 1536 s.upgrades;
  Alcotest.(check int) "writebacks" 0 s.writebacks;
  Alcotest.(check int) "violations" 0 (List.length r.violations);
  Alcotest.(check bool) "memory ok" true r.memory_ok

let pin_limitless_overflow () =
  let cfg = Config.validate { Config.default with processors = 64; cache_bytes = 256 } in
  let net = Hscd_network.Kruskal_snir.create cfg and traffic = Hscd_network.Traffic.create cfg in
  let l = Limitless.create cfg ~memory_words:512 ~network:net ~traffic in
  let g = Prng.of_int 13 in
  let latency = ref 0 in
  for i = 1 to 20_000 do
    let proc = Prng.int g 64 in
    (* three accesses in four hit 16 hot words, so lines overflow *)
    let addr = if Prng.int g 4 = 0 then Prng.int g 512 else Prng.int g 16 in
    let r =
      if Prng.int g 8 = 0 then
        Limitless.write l ~proc ~addr ~array:0 ~value:i ~mark:Event.Normal_write
      else Limitless.read l ~proc ~addr ~array:0 ~mark:Event.Unmarked
    in
    latency := !latency + r.Scheme.latency
  done;
  let s = Limitless.stats l in
  Alcotest.(check int) "traps" 3033 (Limitless.traps l);
  Alcotest.(check int) "total latency" 2872835 !latency;
  Alcotest.(check int) "invalidations sent" 15224 s.invalidations_sent;
  Alcotest.(check int) "dirty recalls" 2408 s.dirty_recalls;
  Alcotest.(check int) "upgrades" 250 s.upgrades;
  Alcotest.(check int) "writebacks" 142 s.writebacks

let suite =
  [
    Alcotest.test_case "HW at P=1024 pinned" `Quick (pin_scale Run.HW);
    Alcotest.test_case "LimitLESS at P=1024 pinned" `Quick (pin_scale Run.LimitLESS);
    Alcotest.test_case "LimitLESS overflow traps pinned" `Quick pin_limitless_overflow;
  ]

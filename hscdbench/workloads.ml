(** The workloads. Each is a closed loop with one caller and no think
    time over an op list drawn from the seed; BENCHMARK.md gives why each
    exists and which layers it exercises. *)

module Run = Hscd_sim.Run
module Engine = Hscd_sim.Engine
module Trace_io = Hscd_sim.Trace_io
module Config = Hscd_arch.Config
module W = Hscd_workloads

type op =
  | Cell of { model : int; scheme : Run.scheme_kind; cache_kb : int; assoc : int; timetag_bits : int }
      (** sweep: one paper-grid cell over a cached compile *)
  | Replay of { scheme : Run.scheme_kind }  (** scale: map the P=1024 trace, replay once *)

(** The coherence scheme an op replays under. *)
let scheme_of = function Cell { scheme; _ } | Replay { scheme } -> scheme

let model_names = Array.of_list W.Perfect.names

type t = {
  name : string;
  nominal_ops_per_s : float;
      (** host-independent constant that sets the rounds of a run from
          --seconds *)
  strata : int;  (** op kinds every block of the list holds once each *)
  block : Random.State.t -> op array;
      (** one block: every op kind once, in a seeded order, with seeded
          knobs *)
  prepare : dir:string -> unit;
      (** the preparation before each round, timed for setup_s but not
          an op; the caller empties the compile cache before each *)
  check : unit -> (string * bool) list;  (** once, after the first preparation *)
  run : op -> Engine.result;  (** one op, through the library's own entry points *)
  prepare_traced : dir:string -> unit;
  run_traced : op -> Engine.result;  (** the same op, split by [Layers] *)
}

(** Digest of everything a simulation reports: equal digests, equal
    results. *)
let digest (r : Engine.result) = Digest.string (Marshal.to_string r [ Marshal.No_sharing ])

let schemes = Layers.schemes

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(** [k] values dealt as evenly as [values] allow, in a seeded order: a
    block's knobs always hold the same mix, whatever the seed. *)
let deal st k values =
  let a = Array.init k (fun i -> values.(i mod Array.length values)) in
  shuffle st a;
  a

(** The op list for [seed]: at least [n] ops, in whole blocks. Every
    seed gets the same mix of op kinds and knob values, so the seed
    moves the order and the pairing of knobs with op kinds, not the
    run's total work. Same seed, same list; the library sees only these
    ops. *)
let ops w ~seed ~n =
  let st = Random.State.make [| seed; Hashtbl.hash w.name |] in
  let blocks = (n + w.strata - 1) / w.strata in
  Array.concat (List.init blocks (fun _ -> w.block st))

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep =
  let programs = ref [||] in
  let cell_cfg = function
    | Cell c ->
      { Config.default with cache_bytes = c.cache_kb * 1024; assoc = c.assoc; timetag_bits = c.timetag_bits }
    | _ -> invalid_arg "sweep: not a cell"
  in
  let program = function Cell c -> !programs.(c.model) | _ -> invalid_arg "sweep: not a cell" in
  let build () = Array.of_list (List.map (fun (e : W.Perfect.entry) -> e.build ()) W.Perfect.all) in
  let strata = Array.length model_names * Array.length schemes in
  {
    name = "sweep";
    nominal_ops_per_s = 55.;
    strata;
    block =
      (fun st ->
        let cache_kb = deal st strata [| 2; 4; 8; 16; 64 |] in
        let assoc = deal st strata [| 1; 2; 4 |] in
        let timetag_bits = deal st strata [| 2; 3; 4; 6; 8 |] in
        let order = Array.init strata Fun.id in
        shuffle st order;
        Array.mapi
          (fun j k ->
            Cell
              {
                model = k / Array.length schemes;
                scheme = schemes.(k mod Array.length schemes);
                cache_kb = cache_kb.(j);
                assoc = assoc.(j);
                timetag_bits = timetag_bits.(j);
              })
          order);
    prepare =
      (fun ~dir:_ ->
        programs := build ();
        Array.iter (fun p -> ignore (Run.compile ~cfg:Config.default p)) !programs);
    check = (fun () -> []);
    run =
      (fun op ->
        let cfg = cell_cfg op in
        let c = Run.compile ~cfg (program op) in
        Run.simulate_packed ~cfg (scheme_of op) c.packed_trace);
    prepare_traced =
      (fun ~dir:_ ->
        programs := build ();
        Array.iter
          (fun p ->
            let staged = Layers.compile ~cfg:Config.default p in
            Layers.check "staged compile equals Run.compile" (fun () ->
                Trace_io.equal_packed staged (Run.compile ~cfg:Config.default p).Run.packed_trace))
          !programs);
    run_traced =
      (fun op ->
        let cfg = cell_cfg op in
        let c = Layers.span "run.compile" (fun () -> Run.compile ~cfg (program op)) in
        Layers.simulate ~cfg (scheme_of op) c.packed_trace);
  }

(* ------------------------------------------------------------------ *)
(* scale                                                               *)
(* ------------------------------------------------------------------ *)

let scale =
  (* 8 KB two-way caches: jacobi's per-processor working set is a few
     lines, and 1024 default 64 KB frame tables would make every op
     allocate and walk 16 MB *)
  let cfg = Config.validate { Config.default with processors = 1024; cache_bytes = 8 * 1024; assoc = 2 } in
  let path = ref "" in
  let program () = W.Kernels.jacobi1d ~n:2048 ~iters:2 () in
  {
    name = "scale";
    nominal_ops_per_s = 30.;
    strata = Array.length schemes;
    block =
      (fun st ->
        let a = Array.map (fun scheme -> Replay { scheme }) schemes in
        shuffle st a;
        a);
    prepare =
      (fun ~dir ->
        path := Filename.concat dir "scale.trc";
        let c = Run.compile ~cfg ~cache:false (program ()) in
        Trace_io.write_packed !path c.packed_trace);
    check =
      (fun () ->
        let mem = Trace_io.read_packed !path in
        Array.to_list
          (Array.map
             (fun k ->
               let mapped = Run.simulate_mapped ~cfg k (Trace_io.map_packed !path) in
               let direct = Run.simulate_packed ~cfg k mem in
               ( Printf.sprintf "trace_io round trip: %s replays alike from the file and from memory"
                   (Run.scheme_name k),
                 digest mapped = digest direct ))
             schemes));
    run = (fun op -> Run.simulate_mapped ~cfg (scheme_of op) (Trace_io.map_packed !path));
    prepare_traced =
      (fun ~dir ->
        path := Filename.concat dir "scale.trc";
        let p = program () in
        let staged = Layers.compile ~cfg p in
        Layers.check "staged compile equals Run.compile" (fun () ->
            Trace_io.equal_packed staged (Run.compile ~cfg ~cache:false p).Run.packed_trace);
        Layers.span "trace_io.write" (fun () -> Trace_io.write_packed !path staged));
    run_traced =
      (fun op ->
        let m = Layers.span "trace_io.map" (fun () -> Trace_io.map_packed !path) in
        Layers.simulate ~mapped:m ~cfg (scheme_of op) (Trace_io.Mapped.trace m));
  }

let all = [ sweep; scale ]
let find name = List.find_opt (fun w -> w.name = name) all

(** The traced run's instruments. Spans go around the benchmark's calls
    into each library layer; where a span per call would be millions of
    records (scheme accesses, epoch boundaries, lazy epoch validation) a
    timing decorator adds into per-scheme accumulators instead. Nothing
    here changes what the library computes: every traced op's result is
    checked against the untraced run's. *)

module Run = Hscd_sim.Run
module Engine = Hscd_sim.Engine
module Trace = Hscd_sim.Trace
module Trace_io = Hscd_sim.Trace_io
module Schedule = Hscd_sim.Schedule
module Scheme = Hscd_coherence.Scheme
module Config = Hscd_arch.Config
module Sema = Hscd_lang.Sema
module Marking = Hscd_compiler.Marking
module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let schemes = Array.of_list Run.extended_schemes
let n_schemes = Array.length schemes

let scheme_index kind =
  let rec go i = if schemes.(i) = kind then i else go (i + 1) in
  go 0

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory, written out when the run ends.               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (** enclosing span, -1 at top level *)
  op : int;  (** op index, -1 during setup *)
  name : string;  (** layer boundary, e.g. ["engine.run"] *)
  detail : string;  (** scheme name where one applies *)
  t0 : int;
  t1 : int;  (** monotonic ns *)
}

let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let current_op = ref (-1)

let span ?(detail = "") name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now_ns () in
      current := parent;
      spans := { id; parent; op = !current_op; name; detail; t0; t1 } :: !spans)
    f

(** Summed duration (s) and count of the spans called [name]
    (restricted to one [detail] when given). *)
let total ?detail name =
  List.fold_left
    (fun (s, n) sp ->
      if sp.name = name && (match detail with None -> true | Some d -> sp.detail = d) then
        (s +. (float_of_int (sp.t1 - sp.t0) *. 1e-9), n + 1)
      else (s, n))
    (0., 0) !spans

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"detail\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.parent s.op s.name s.detail s.t0 s.t1)
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Accumulators for calls too frequent to span.                        *)
(* ------------------------------------------------------------------ *)

let access_ns = Array.make n_schemes 0
let accesses = Array.make n_schemes 0
let events = Array.make n_schemes 0
let boundary_ns = ref 0
let validate_ns = ref 0
let validated_epochs = ref 0
let engine_words = ref 0.
let gen_words = ref 0.
let gen_slots = ref 0

let checks : (string * bool) list ref = ref []

let reset () =
  spans := [];
  next_id := 0;
  current := -1;
  current_op := -1;
  List.iter (fun a -> Array.fill a 0 n_schemes 0) [ access_ns; accesses; events ];
  boundary_ns := 0;
  validate_ns := 0;
  validated_epochs := 0;
  engine_words := 0.;
  gen_words := 0.;
  gen_slots := 0;
  checks := []

(** Record a correctness check of the traced pass; a check that raises
    fails. *)
let check name f =
  let ok = try f () with _ -> false in
  let prev = Option.value (List.assoc_opt name !checks) ~default:true in
  checks := (name, prev && ok) :: List.remove_assoc name !checks

(** Decorate a packed scheme so that [read]/[write]/[epoch_boundary]
    add their time into the accumulators of scheme [k]. Shaped like
    [Hscd_check.Monitor.wrap]: the wrapped [create] is inert. *)
let timed k (Scheme.Packed ((module S), s)) : Scheme.packed =
  let module M = struct
    type t = unit

    let name = S.name
    let create _ ~memory_words:_ ~network:_ ~traffic:_ = ()

    let read () ~proc ~addr ~array ~mark =
      let t0 = now_ns () in
      let r = S.read s ~proc ~addr ~array ~mark in
      access_ns.(k) <- access_ns.(k) + (now_ns () - t0);
      accesses.(k) <- accesses.(k) + 1;
      r

    let write () ~proc ~addr ~array ~value ~mark =
      let t0 = now_ns () in
      let r = S.write s ~proc ~addr ~array ~value ~mark in
      access_ns.(k) <- access_ns.(k) + (now_ns () - t0);
      accesses.(k) <- accesses.(k) + 1;
      r

    let epoch_boundary () ~stalls =
      let t0 = now_ns () in
      S.epoch_boundary s ~stalls;
      boundary_ns := !boundary_ns + (now_ns () - t0)

    (* traced instances are never sharded *)
    let boundary_exchange (_ : t array) = ()

    let stats () = S.stats s
    let memory_image () = S.memory_image s
    let snapshot () = S.snapshot s
  end in
  Scheme.Packed ((module M), ())

(** [Run.simulate_packed] (or [Run.simulate_mapped] when [mapped] is
    given), split into scheme construction, replay, scheme accesses,
    epoch boundaries and lazy validation. *)
let simulate ?mapped ~cfg kind (trace : Trace.packed) =
  let cfg = Config.validate cfg in
  let network = Kruskal_snir.create cfg in
  let traffic = Traffic.create cfg in
  let k = scheme_index kind in
  let detail = Run.scheme_name kind in
  let sch =
    span ~detail "coherence.create" (fun () ->
        Run.pack kind cfg ~memory_words:(Trace.packed_memory_words trace) ~network ~traffic)
  in
  let on_epoch =
    match mapped with
    | None -> fun (_ : int) -> ()
    | Some m ->
      fun e ->
        let t0 = now_ns () in
        Trace_io.Mapped.validate_epoch m e;
        validate_ns := !validate_ns + (now_ns () - t0);
        incr validated_epochs
  in
  let sch = timed k sch in
  let w0 = Gc.minor_words () in
  let r =
    span ~detail "engine.run" (fun () -> Engine.run ~on_epoch cfg sch ~net:network ~traffic trace)
  in
  engine_words := !engine_words +. (Gc.minor_words () -. w0);
  events.(k) <- events.(k) + trace.Trace.n_slots;
  r

(** [Run.compile ~cache:false], stage by stage: sema, marking, streamed
    trace generation. *)
let compile ~cfg program =
  let p = span "lang.sema" (fun () -> Sema.check_exn program) in
  let m =
    span "compiler.marking" (fun () ->
        Marking.mark_program ~static_sched:(Schedule.is_static cfg) ~intertask:true p)
  in
  let w0 = Gc.minor_words () in
  let t =
    span "trace.gen" (fun () ->
        Trace.of_program_packed ~check_races:true ~line_words:cfg.Config.line_words
          m.Marking.program)
  in
  gen_words := !gen_words +. (Gc.minor_words () -. w0);
  gen_slots := !gen_slots + t.Trace.n_slots;
  t

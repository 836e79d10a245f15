(** The persistent build service behind [sizeopt serve].

    One [t] holds all warm state:
    - a content-hash result cache keyed on (pipeline spec, module hashes in
      request order) with LRU eviction ({!Cache});
    - per-app front-end caches: memoized [signatures_of] / [compile_module]
      hooks for {!Swiftlet.Compile.compile_with}, the same two-pass loop
      {!Swiftlet.Compile.compile_program} runs.  Signatures are keyed on
      own source hash; compiled MIR on own source hash plus the signatures
      of the externals the module's source mentions (a conservative
      refinement of the import semantics, so appending a fresh function to
      one module leaves the others' cached bodies valid);
    - a per-app suffix-tree arena pool ({!Outcore.Outliner.warm}), handed
      to every build; it holds nothing of any program, and each build's
      incremental engine starts its interner and memo afresh, so no build,
      failed or not, can leave stale state for the next.

    Warm state is keyed by the request's [app] label, so two apps never
    share name-keyed front-end caches.  At most 16 apps keep warm state:
    the least recently served app is evicted (an LRU over app labels,
    reported as [apps] in [stats]) and its next build runs cold.  Every response is
    byte-identical to a from-scratch {!Pipeline.build} of the same request
    — the fuzz differential and the replay bench both gate on it. *)

type t

val create : ?cache_capacity:int -> unit -> t
(** Default capacity: 64 results. *)

val handle : t -> string -> string * [ `Continue | `Stop ]
(** The one request path: serve one request payload and return its
    response payload.  Requests are handled one at a time, in arrival
    order: parse, answer control requests, look the build up in the result
    cache, and on a miss build it against the app's warm state and insert
    the result.  Never raises: malformed requests and failed builds come
    back as [error] replies.  [`Stop] only for a [shutdown] request. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** The [--stdio] transport: one frame in, one frame out through {!handle},
    until EOF, a framing error (answered with an [error] reply, then the
    loop stops), or [shutdown] (answered with [bye]). *)

val serve_unix : t -> path:string -> unit
(** The Unix-socket transport: accepts any number of clients, reads
    complete frames as they arrive and answers each through {!handle}, in
    client order.  Returns after [shutdown] (frames queued behind it go
    unanswered); the socket file is unlinked. *)

val fault_stale_cache_entry : bool ref
(** Fault injection for [sizeopt fuzz --self-test]: drop the module-content
    component of the result-cache key, so an edited app hits the previous
    image.  The serve-vs-cold differential must catch the stale bytes. *)

(** OpenSM-style dump files. The paper's artifact is a patched OpenSM;
    operators inspect its output as LFT dumps (per-switch unicast
    forwarding tables) and SL-to-VL configuration. This module renders our
    routing results in that spirit so they can be diffed, archived, or fed
    to external tooling.

    Identifiers follow InfiniBand conventions deterministically: the LID
    of a node is [node id + 1] (LID 0 is reserved), the GUID is a fixed
    prefix plus the node id, and a node's port numbers are 1-based
    positions in its outgoing-channel list. *)

(** [save_all ~dir ft] writes three files into [dir] and returns their
    paths:
    - [opensm-lfts.dump], every switch's unicast forwarding table:
    {v
    Unicast lids [0x1-0xNN] of switch lid 7 guid 0x0002c90000000006 (sw3):
    0x0004 002 : (terminal 't1')
    ...
    v}
    - [opensm-guids.dump], every node's lid, guid, kind and name — the
      fabric inventory ("ibnetdiscover" flavour);
    - [opensm-sl2vl.dump], the per-route service level (our virtual layer
      per (src, dst) pair), one line per source terminal with one hex
      digit per destination.
    @raise Invalid_argument if a layer is above 15, which InfiniBand SLs
    cannot express. *)
val save_all : dir:string -> Ftable.t -> string list

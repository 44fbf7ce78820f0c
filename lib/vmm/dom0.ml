
let name = "dom0"

(* Since E18 the backend machinery lives in {!Driver_dom.service_body},
   shared with the disaggregated driver domains; the monolithic Dom0 is
   the configuration that runs both device classes under one roof (and
   one cycle account, and one blast radius). *)
let body mach ?connect_timeout ?generation ?net_admit ?net_napi ?net_poll
    ?(net = []) ?(blk = []) () =
  Driver_dom.service_body mach ~prefix:name ?connect_timeout ?generation
    ?net_admit ?net_napi ?net_poll ~net ~blk ()

(** Dom0 software bridge: the Xen-style inter-guest path (E17).

    A Dom0-like privileged domain whose netbacks feed a
    {!Vmk_vnet.Vnet.Switch} instead of the physical NIC. Every
    inter-guest packet crosses Dom0 twice on the classic split-driver
    primitives:

    {ol
    {- sender netfront → tx ring → netback grant-maps the frame and
       hands it to the switch (forwarding cycles burn on Dom0's
       account), completing the transmit with the switch's ECN verdict
       on the response; and}
    {- after the event batch, switch port queues drain into the
       destination netbacks — grant flip/copy onto the receiver's rx
       ring plus an event-channel notify, exactly like NIC receive.}}

    This is the hop/transition budget the E17 comparison charges
    against the L4 direct-IPC path. *)

val name : string

val body :
  Vmk_hw.Machine.t ->
  ?connect_timeout:int64 ->
  ?generation:int ->
  ?fair:Vmk_overload.Overload.Weighted_buckets.t ->
  ?port_capacity:int ->
  ?mark_at:int ->
  ?net:Net_channel.t list ->
  unit ->
  unit
(** Run the bridge domain's fiber: connect a netback per channel
    ([attach_nic:false] — pool frames stay local), register each
    frontend's demux key as a switch port, then serve events forever.
    [fair] installs per-sender weighted admission at the switch gate;
    [mark_at] arms the ECN watermark on every port queue;
    [port_capacity] sizes each port queue (default 64). Never
    returns; run it under the scenario's engine like {!Dom0.body}. *)

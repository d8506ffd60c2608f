/* poll(2) over many descriptors: select(2) cannot watch a descriptor
   numbered FD_SETSIZE (1024) or above, and OCaml's Unix has no poll. */

#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <caml/mlvalues.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/signals.h>

/* [fds.(i)] waits for the events in [ev.(i)] (1 readable, 2 writable);
   on return [ev.(i)] holds those that are ready, a hangup or error
   counting as ready. [ev] is a root: another thread may move it while
   the runtime lock is released. */
value lamp_poll(value fds, value ev, value timeout_ms)
{
  CAMLparam3(fds, ev, timeout_ms);
  int k = Wosize_val(fds), i, ret, err, r, e;
  struct pollfd *p;
  if (Wosize_val(ev) != k) caml_invalid_argument("Wire.poll");
  p = malloc((k > 0 ? k : 1) * sizeof *p);
  if (p == NULL) caml_raise_out_of_memory();
  for (i = 0; i < k; i++) {
    e = Int_val(Field(ev, i));
    p[i].fd = Int_val(Field(fds, i));
    p[i].events = ((e & 1) ? POLLIN : 0) | ((e & 2) ? POLLOUT : 0);
    p[i].revents = 0;
  }
  caml_enter_blocking_section();
  ret = poll(p, k, Int_val(timeout_ms));
  err = errno;
  caml_leave_blocking_section();
  for (i = 0; i < k; i++) {
    r = p[i].revents;
    e = ((r & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) ? 1 : 0)
        | ((r & (POLLOUT | POLLHUP | POLLERR | POLLNVAL)) ? 2 : 0);
    Store_field(ev, i, Val_int(e & Int_val(Field(ev, i))));
  }
  free(p);
  if (ret < 0 && err != EINTR) caml_failwith("poll");
  CAMLreturn(Val_int(ret < 0 ? -1 : ret));
}

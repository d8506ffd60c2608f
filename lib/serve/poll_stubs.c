/* poll(2) on one descriptor. select(2) cannot watch a descriptor
   numbered FD_SETSIZE (1024) or above, and OCaml's Unix library has no
   poll. */

#include <errno.h>
#include <poll.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* Waits until [fd] is readable or hung up (1), [timeout_ms] passes (0;
   negative waits without limit) or a signal interrupts the wait (-1).
   Any other failure answers 1: the read that follows reports it. */
value lamp_poll_readable(value fd, value timeout_ms)
{
  struct pollfd p;
  int ret, err;
  p.fd = Int_val(fd);
  p.events = POLLIN;
  p.revents = 0;
  caml_enter_blocking_section();
  ret = poll(&p, 1, Int_val(timeout_ms));
  err = errno;
  caml_leave_blocking_section();
  if (ret < 0) return Val_int(err == EINTR ? -1 : 1);
  return Val_int(ret > 0);
}

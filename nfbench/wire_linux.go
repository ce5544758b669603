package main

// Batched UDP I/O for the load generator and the egress sink: one
// sendmmsg moves a whole burst of frames out, one recvmmsg pulls a burst
// in, the same way the port under test batches its own socket I/O. The
// sink asks the kernel for a receive timestamp per datagram
// (SO_TIMESTAMPNS), so latency ends when the frame reached the sink's
// socket, not when the sink goroutine got a processor, and for the
// socket's cumulative overflow count (SO_RXQ_OVFL), so frames the sink
// itself failed to drain are told apart from frames the pipeline lost.

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

const (
	soTimestampNS = 35 // SO_TIMESTAMPNS (SCM_TIMESTAMPNS on receive)
	soRxqOvfl     = 40 // SO_RXQ_OVFL
	msgDontwait   = syscall.MSG_DONTWAIT
	// ctlSize holds one timestamp and one overflow control message:
	// cmsghdr(16)+timespec(16), then cmsghdr(16)+uint32 padded to 8.
	ctlSize = 64
)

// mmsghdr mirrors struct mmsghdr on 64-bit Linux.
type mmsghdr struct {
	hdr syscall.Msghdr
	ln  uint32
	_   [4]byte
}

// wire is one batched UDP socket.
type wire struct {
	conn *net.UDPConn
	rc   syscall.RawConn

	hdrs []mmsghdr
	iovs []syscall.Iovec
	ctl  [][]byte

	dst syscall.RawSockaddrInet4
}

// openWire binds a UDP socket on the loopback interface. rcvbuf > 0
// requests that receive buffer; stamps turns on kernel receive
// timestamps and the overflow counter.
func openWire(burst, rcvbuf int, stamps bool) (*wire, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("raw conn: %w", err)
	}
	w := &wire{conn: conn, rc: rc, hdrs: make([]mmsghdr, burst), iovs: make([]syscall.Iovec, burst)}
	if rcvbuf > 0 {
		if err := conn.SetReadBuffer(rcvbuf); err != nil {
			conn.Close()
			return nil, fmt.Errorf("receive buffer: %w", err)
		}
	}
	if stamps {
		var serr error
		if err := rc.Control(func(fd uintptr) {
			if serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soTimestampNS, 1); serr == nil {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soRxqOvfl, 1)
			}
		}); err != nil || serr != nil {
			conn.Close()
			return nil, fmt.Errorf("socket options: %v %v", err, serr)
		}
		w.ctl = make([][]byte, burst)
		for i := range w.ctl {
			w.ctl[i] = make([]byte, ctlSize)
		}
	}
	return w, nil
}

// Addr is the bound address.
func (w *wire) Addr() *net.UDPAddr { return w.conn.LocalAddr().(*net.UDPAddr) }

// Close closes the socket; a reader parked in recv returns an error.
func (w *wire) Close() error { return w.conn.Close() }

// setDst fixes the destination of later sends.
func (w *wire) setDst(a *net.UDPAddr) {
	w.dst = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
	w.dst.Port = uint16(a.Port>>8) | uint16(a.Port&0xff)<<8
	copy(w.dst.Addr[:], a.IP.To4())
}

// send transmits frames to the destination with as few sendmmsg calls
// as the kernel allows and returns how many it accepted.
func (w *wire) send(frames [][]byte) (int, error) {
	sent := 0
	for sent < len(frames) {
		vlen := min(len(frames)-sent, len(w.hdrs))
		for i := 0; i < vlen; i++ {
			f := frames[sent+i]
			w.iovs[i].Base = &f[0]
			w.iovs[i].SetLen(len(f))
			w.hdrs[i] = mmsghdr{}
			w.hdrs[i].hdr.Iov = &w.iovs[i]
			w.hdrs[i].hdr.Iovlen = 1
			w.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&w.dst))
			w.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet4
		}
		var n int
		var errno syscall.Errno
		err := w.rc.Write(func(fd uintptr) bool {
			r, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&w.hdrs[0])), uintptr(vlen), msgDontwait, 0, 0)
			if e == syscall.EAGAIN {
				return false
			}
			n, errno = int(r), e
			return true
		})
		if err != nil {
			return sent, err
		}
		if errno != 0 {
			return sent, errno
		}
		sent += n
	}
	return sent, nil
}

// recv blocks until at least one datagram is queued, then reads up to
// len(bufs) of them. lens[i] is each datagram's length and stamps[i] its
// kernel receive time in Unix nanoseconds (0 when the kernel gave none);
// ovfl is the socket's cumulative overflow count, or -1 when no datagram
// carried it.
func (w *wire) recv(bufs [][]byte, lens []int, stamps []int64) (n int, ovfl int64, err error) {
	vlen := min(len(bufs), len(w.hdrs))
	for i := 0; i < vlen; i++ {
		w.iovs[i].Base = &bufs[i][0]
		w.iovs[i].SetLen(len(bufs[i]))
		w.hdrs[i] = mmsghdr{}
		w.hdrs[i].hdr.Iov = &w.iovs[i]
		w.hdrs[i].hdr.Iovlen = 1
		if w.ctl != nil {
			w.hdrs[i].hdr.Control = &w.ctl[i][0]
			w.hdrs[i].hdr.SetControllen(ctlSize)
		}
	}
	var errno syscall.Errno
	err = w.rc.Read(func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&w.hdrs[0])), uintptr(vlen), msgDontwait, 0, 0)
		if e == syscall.EAGAIN {
			return false
		}
		n, errno = int(r), e
		return true
	})
	if err != nil {
		return 0, -1, err
	}
	if errno != 0 {
		return 0, -1, errno
	}
	ovfl = -1
	for i := 0; i < n; i++ {
		lens[i] = int(w.hdrs[i].ln)
		stamps[i] = 0
		if w.ctl != nil {
			ts, ov := parseControl(w.ctl[i][:w.hdrs[i].hdr.Controllen])
			stamps[i] = ts
			if ov >= 0 {
				ovfl = ov
			}
		}
	}
	return n, ovfl, nil
}

// parseControl walks the control messages of one datagram for the
// receive timestamp and the overflow counter.
func parseControl(b []byte) (stamp, ovfl int64) {
	ovfl = -1
	for len(b) >= syscall.SizeofCmsghdr {
		ln := int(binary.LittleEndian.Uint64(b[0:8]))
		level := int32(binary.LittleEndian.Uint32(b[8:12]))
		typ := int32(binary.LittleEndian.Uint32(b[12:16]))
		if ln < syscall.SizeofCmsghdr || ln > len(b) {
			break
		}
		data := b[syscall.SizeofCmsghdr:ln]
		if level == syscall.SOL_SOCKET {
			switch {
			case typ == soTimestampNS && len(data) >= 16:
				sec := int64(binary.LittleEndian.Uint64(data[0:8]))
				nsec := int64(binary.LittleEndian.Uint64(data[8:16]))
				stamp = sec*1e9 + nsec
			case typ == soRxqOvfl && len(data) >= 4:
				ovfl = int64(binary.LittleEndian.Uint32(data[0:4]))
			}
		}
		next := (ln + 7) &^ 7
		if next >= len(b) {
			break
		}
		b = b[next:]
	}
	return stamp, ovfl
}

// threadCPU reports the CPU time, in nanoseconds, of the OS thread tid of
// this process (the clock pthread_getcpuclockid names).
func threadCPU(tid int) int64 {
	clock := int32(^int32(tid))<<3 | 6 // CPUCLOCK_SCHED | CPUCLOCK_PERTHREAD_MASK
	return clockNanos(clock)
}

// processCPU reports the CPU time of the whole process in nanoseconds.
func processCPU() int64 { return clockNanos(2) } // CLOCK_PROCESS_CPUTIME_ID

func clockNanos(clock int32) int64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return ts.Nano()
}

// nanosleep sleeps the calling OS thread; the generator paces with it
// because the runtime's timers wake no finer than about a millisecond.
func nanosleep(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just sends early
}

// tightTimerSlack asks the kernel to wake this thread's sleeps on time
// instead of batching them with the default 50µs slack.
func tightTimerSlack() {
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, 29 /* PR_SET_TIMERSLACK */, 1, 0) // best effort
}

// peakRSS reports the process's peak resident set in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}

// cpuTimes is the host-wide CPU time split from /proc/stat, in ticks.
type cpuTimes struct{ total, steal uint64 }

// hostSteal reads the aggregate CPU line of /proc/stat: on a virtual
// machine, steal is time this guest's CPUs were runnable but the
// hypervisor ran something else.
func hostSteal() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var t cpuTimes
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

func (a cpuTimes) sub(b cpuTimes) cpuTimes { return cpuTimes{a.total - b.total, a.steal - b.steal} }

func (a cpuTimes) stealShare() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.steal) / float64(a.total)
}

package main

// sendmmsg from the kernel's generic (arm64) syscall table.
const sysSendmmsg = 269

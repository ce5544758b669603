package main

// sendmmsg is missing from the frozen syscall package's x86_64 table.
const sysSendmmsg = 307

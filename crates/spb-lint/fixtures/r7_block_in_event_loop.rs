//! Known-bad fixture for zero-hop `block-reach`: blocking std I/O
//! literally inside the event-loop module, each call parking the only
//! thread that services every connection.

fn pump(stream: &mut std::net::TcpStream, listener: &std::net::TcpListener, buf: &mut [u8]) {
    let _ = stream.read_exact(buf);
    let _ = stream.write_all(buf);
    let _ = listener.accept();
}

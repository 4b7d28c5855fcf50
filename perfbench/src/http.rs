//! A minimal HTTP/1.1 client for the serve daemon over loopback: one
//! request per connection, as the daemon answers `Connection: close`.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest a request may take before the client gives up on it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A response: status code and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Body bytes as text.
    pub body: String,
}

/// Sends one request and reads the whole response.
///
/// # Errors
///
/// Connect, I/O or parse failures, as text.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    parse_response(&raw)
}

/// Splits a raw response into status and body, checking the body
/// against `Content-Length`.
pub fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|e| e.to_string())?;
    let body = String::from_utf8(raw[split + 4..].to_vec()).map_err(|e| e.to_string())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response has no status code")?;
    let declared = head
        .lines()
        .find_map(|l| {
            let (key, value) = l.split_once(':')?;
            key.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .ok_or("response has no Content-Length")?;
    if declared != body.len() {
        return Err(format!(
            "body is {} bytes, Content-Length says {declared}",
            body.len()
        ));
    }
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_checks_length() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n[]";
        assert_eq!(
            parse_response(ok),
            Ok(Response {
                status: 200,
                body: "[]".into()
            })
        );
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n[]";
        assert!(parse_response(short).is_err());
        assert!(parse_response(b"garbage").is_err());
    }
}

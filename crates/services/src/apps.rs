//! Poll-driven applications and the victim's scripted workflows.

use bytes::Bytes;
use rogue_crypto::md5_hex;
use rogue_netstack::{Host, Ipv4Addr, SocketHandle};
use rogue_sim::{SimDuration, SimTime};

use crate::http::{
    find_href, find_md5sum, get_request, not_found, parse_link, parse_request, parse_response,
    response, LinkTarget,
};
use crate::site::SiteContent;

/// An application bound to one host, driven by the world loop.
///
/// `Send`, so that a world holding apps is `Send` too.
pub trait App: std::any::Any + Send {
    /// Make progress: read sockets, write sockets, fire timers.
    fn poll(&mut self, now: SimTime, host: &mut Host, out: &mut Vec<AppEvent>);

    /// Earliest instant this app needs a poll independent of I/O.
    ///
    /// Contract: a poll before this instant, with no input since the
    /// last poll, does nothing — it emits no event and leaves this value
    /// unchanged. The world skips such polls after a radio completion
    /// (debug builds poll anyway and assert the contract), so an app
    /// that acts on its own must say when here.
    fn next_wake(&self) -> SimTime {
        SimTime::FOREVER
    }

    /// Downcast support so experiment code can read results back out of
    /// a world-owned `Box<dyn App>`.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Milestones emitted by applications.
#[derive(Clone, Debug)]
pub enum AppEvent {
    /// A download workflow finished (success or failure).
    DownloadFinished(DownloadOutcome),
    /// A periodic page fetch finished.
    PageFetched {
        /// Body differed from the expected content.
        tampered: bool,
        /// Request→response latency.
        latency: SimDuration,
    },
    /// A periodic page fetch failed (timeout / connection error).
    PageFailed,
}

// ---------------------------------------------------------------------
// HTTP server
// ---------------------------------------------------------------------

/// Serves a [`SiteContent`] over HTTP/1.0.
pub struct HttpServerApp {
    port: u16,
    site: SiteContent,
    listener: Option<SocketHandle>,
    conns: Vec<ServerConn>,
    /// Requests answered.
    pub requests_served: u64,
}

struct ServerConn {
    h: SocketHandle,
    buf: Vec<u8>,
    responded: bool,
}

impl HttpServerApp {
    /// New server on `port`.
    pub fn new(port: u16, site: SiteContent) -> HttpServerApp {
        HttpServerApp {
            port,
            site,
            listener: None,
            conns: Vec::new(),
            requests_served: 0,
        }
    }
}

impl App for HttpServerApp {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn poll(&mut self, now: SimTime, host: &mut Host, _out: &mut Vec<AppEvent>) {
        let listener = *self
            .listener
            .get_or_insert_with(|| host.tcp_listen(self.port));
        while let Some(h) = host.tcp_accept(listener) {
            self.conns.push(ServerConn {
                h,
                buf: Vec::new(),
                responded: false,
            });
        }
        let mut finished = Vec::new();
        for (i, conn) in self.conns.iter_mut().enumerate() {
            if !conn.responded {
                let chunk = host.tcp_recv(conn.h, 64 * 1024);
                conn.buf.extend_from_slice(&chunk);
                if let Some(req) = parse_request(&conn.buf) {
                    let reply = match self.site.get(&req.path) {
                        Some((ct, body)) if req.method == "GET" => response(200, "OK", ct, body),
                        _ => not_found(),
                    };
                    host.tcp_send(now, conn.h, &reply);
                    host.tcp_close(now, conn.h);
                    conn.responded = true;
                    self.requests_served += 1;
                }
            }
            if host.tcp_is_closed(conn.h) {
                finished.push(i);
            }
        }
        for i in finished.into_iter().rev() {
            let conn = self.conns.remove(i);
            host.tcp_release(conn.h);
        }
    }
}

// ---------------------------------------------------------------------
// Download client (the Section 4.1 victim workflow)
// ---------------------------------------------------------------------

/// What happened to a download attempt.
#[derive(Clone, Debug, Default)]
pub struct DownloadOutcome {
    /// The portal page was fetched and parsed.
    pub page_fetched: bool,
    /// The link found on the page.
    pub link: Option<String>,
    /// The MD5SUM advertised on the page.
    pub advertised_md5: Option<String>,
    /// MD5 of the bytes actually downloaded.
    pub file_md5: Option<String>,
    /// The victim's verification step: downloaded md5 == advertised md5.
    /// **This passing says nothing about the file being genuine** — that
    /// is the paper's whole point.
    pub verified: bool,
    /// Downloaded size.
    pub file_len: usize,
    /// The actual file bytes (the experiment compares them with the
    /// genuine release to decide whether the victim got the trojan).
    pub file_bytes: Option<Bytes>,
    /// Server the file was fetched from (rewritten links change it).
    pub file_server: Option<Ipv4Addr>,
    /// Completion time.
    pub completed_at: Option<SimTime>,
    /// Failure description, if the workflow did not complete.
    pub error: Option<String>,
}

enum DlState {
    Idle,
    FetchingPage { h: SocketHandle, buf: Vec<u8> },
    FetchingFile { h: SocketHandle, buf: Vec<u8> },
    Done,
}

/// The victim: fetch the portal page, follow its link, verify the MD5SUM.
pub struct DownloadClient {
    server: Ipv4Addr,
    page_path: String,
    start_at: SimTime,
    deadline: SimTime,
    state: DlState,
    partial: DownloadOutcome,
    /// Final outcome, set when the workflow ends.
    pub outcome: Option<DownloadOutcome>,
}

impl DownloadClient {
    /// Schedule a download from `server` starting at `start_at`.
    pub fn new(server: Ipv4Addr, page_path: &str, start_at: SimTime, timeout: SimDuration) -> Self {
        DownloadClient {
            server,
            page_path: page_path.to_string(),
            start_at,
            deadline: start_at + timeout,
            state: DlState::Idle,
            partial: DownloadOutcome::default(),
            outcome: None,
        }
    }

    fn finish(&mut self, now: SimTime, error: Option<String>, out: &mut Vec<AppEvent>) {
        let mut o = std::mem::take(&mut self.partial);
        o.completed_at = Some(now);
        o.error = error;
        out.push(AppEvent::DownloadFinished(o.clone()));
        self.outcome = Some(o);
        self.state = DlState::Done;
    }
}

impl App for DownloadClient {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn poll(&mut self, now: SimTime, host: &mut Host, out: &mut Vec<AppEvent>) {
        if matches!(self.state, DlState::Done) {
            return;
        }
        if now >= self.deadline {
            self.finish(now, Some("timeout".into()), out);
            return;
        }
        match &mut self.state {
            DlState::Idle => {
                if now >= self.start_at {
                    let h = host.tcp_connect(now, self.server, 80);
                    host.tcp_send(
                        now,
                        h,
                        &get_request(&self.page_path, &self.server.to_string()),
                    );
                    self.state = DlState::FetchingPage { h, buf: Vec::new() };
                }
            }
            DlState::FetchingPage { h, buf } => {
                let h = *h;
                let chunk = host.tcp_recv(h, 64 * 1024);
                buf.extend_from_slice(&chunk);
                if host.tcp_eof(h) || host.tcp_is_closed(h) {
                    let buf = std::mem::take(buf);
                    host.tcp_close(now, h);
                    host.tcp_release(h);
                    let Some((status, body)) = parse_response(&buf) else {
                        self.finish(now, Some("bad page response".into()), out);
                        return;
                    };
                    if status != 200 {
                        self.finish(now, Some(format!("page status {status}")), out);
                        return;
                    }
                    self.partial.page_fetched = true;
                    self.partial.link = find_href(&body);
                    self.partial.advertised_md5 = find_md5sum(&body);
                    let Some(link) = self.partial.link.clone() else {
                        self.finish(now, Some("no link on page".into()), out);
                        return;
                    };
                    let (server, path) = match parse_link(&link) {
                        Some(LinkTarget::Relative(p)) => (self.server, p),
                        Some(LinkTarget::Absolute(ip, p)) => (ip, p),
                        None => {
                            self.finish(now, Some("unparseable link".into()), out);
                            return;
                        }
                    };
                    self.partial.file_server = Some(server);
                    let fh = host.tcp_connect(now, server, 80);
                    host.tcp_send(now, fh, &get_request(&path, &server.to_string()));
                    self.state = DlState::FetchingFile {
                        h: fh,
                        buf: Vec::new(),
                    };
                }
            }
            DlState::FetchingFile { h, buf } => {
                let h = *h;
                let chunk = host.tcp_recv(h, 256 * 1024);
                buf.extend_from_slice(&chunk);
                if host.tcp_eof(h) || host.tcp_is_closed(h) {
                    let buf = std::mem::take(buf);
                    host.tcp_close(now, h);
                    host.tcp_release(h);
                    let Some((status, body)) = parse_response(&buf) else {
                        self.finish(now, Some("bad file response".into()), out);
                        return;
                    };
                    if status != 200 {
                        self.finish(now, Some(format!("file status {status}")), out);
                        return;
                    }
                    let md5 = md5_hex(&body);
                    self.partial.file_len = body.len();
                    self.partial.file_md5 = Some(md5.clone());
                    self.partial.verified =
                        self.partial.advertised_md5.as_deref() == Some(md5.as_str());
                    self.partial.file_bytes = Some(body);
                    self.finish(now, None, out);
                }
            }
            DlState::Done => {}
        }
    }

    fn next_wake(&self) -> SimTime {
        match self.state {
            DlState::Idle => self.start_at,
            DlState::Done => SimTime::FOREVER,
            _ => self.deadline,
        }
    }
}

// ---------------------------------------------------------------------
// Periodic browser (§5.1 "CNN" scenario)
// ---------------------------------------------------------------------

enum BrState {
    Waiting {
        next: SimTime,
    },
    Fetching {
        h: SocketHandle,
        buf: Vec<u8>,
        started: SimTime,
    },
}

/// Repeatedly fetches one page and checks the body against the known
/// genuine content — the "user who only visits large legitimate websites"
/// and whose pages get tampered with anyway.
pub struct BrowserApp {
    server: Ipv4Addr,
    path: String,
    period: SimDuration,
    expected_body: Bytes,
    timeout: SimDuration,
    deadline: SimTime,
    state: BrState,
    /// Pages whose body matched the genuine content.
    pub pages_ok: u64,
    /// Pages that came back altered.
    pub pages_tampered: u64,
    /// Fetches that failed outright.
    pub failures: u64,
}

impl BrowserApp {
    /// New browser fetching `path` from `server` every `period`.
    pub fn new(
        server: Ipv4Addr,
        path: &str,
        expected_body: Bytes,
        first_at: SimTime,
        period: SimDuration,
    ) -> BrowserApp {
        BrowserApp {
            server,
            path: path.to_string(),
            period,
            expected_body,
            timeout: SimDuration::from_secs(10),
            deadline: SimTime::FOREVER,
            state: BrState::Waiting { next: first_at },
            pages_ok: 0,
            pages_tampered: 0,
            failures: 0,
        }
    }
}

impl App for BrowserApp {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn poll(&mut self, now: SimTime, host: &mut Host, out: &mut Vec<AppEvent>) {
        match &mut self.state {
            BrState::Waiting { next } => {
                if now >= *next {
                    let h = host.tcp_connect(now, self.server, 80);
                    host.tcp_send(now, h, &get_request(&self.path, &self.server.to_string()));
                    self.deadline = now + self.timeout;
                    self.state = BrState::Fetching {
                        h,
                        buf: Vec::new(),
                        started: now,
                    };
                }
            }
            BrState::Fetching { h, buf, started } => {
                let h = *h;
                let started = *started;
                let chunk = host.tcp_recv(h, 64 * 1024);
                buf.extend_from_slice(&chunk);
                let done = host.tcp_eof(h) || host.tcp_is_closed(h);
                let timed_out = now >= self.deadline;
                if done || timed_out {
                    let buf = std::mem::take(buf);
                    host.tcp_abort(now, h);
                    host.tcp_release(h);
                    if timed_out && !done {
                        self.failures += 1;
                        out.push(AppEvent::PageFailed);
                    } else {
                        match parse_response(&buf) {
                            Some((200, body)) => {
                                let tampered = body != self.expected_body;
                                if tampered {
                                    self.pages_tampered += 1;
                                } else {
                                    self.pages_ok += 1;
                                }
                                out.push(AppEvent::PageFetched {
                                    tampered,
                                    latency: now.since(started),
                                });
                            }
                            _ => {
                                self.failures += 1;
                                out.push(AppEvent::PageFailed);
                            }
                        }
                    }
                    self.state = BrState::Waiting {
                        next: now + self.period,
                    };
                }
            }
        }
    }

    fn next_wake(&self) -> SimTime {
        match &self.state {
            BrState::Waiting { next } => *next,
            BrState::Fetching { .. } => self.deadline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::{download_portal, make_binary};
    use rogue_dot11::MacAddr;
    use rogue_sim::{Seed, SimRng};

    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    /// Two hosts on a perfect wire, with one app on each.
    fn run_pair(
        client_app: &mut dyn App,
        server_app: &mut dyn App,
        until: SimTime,
    ) -> Vec<AppEvent> {
        let mut client = Host::new("client", SimRng::new(Seed(1)));
        let mut server = Host::new("server", SimRng::new(Seed(2)));
        client.add_iface(MacAddr::local(1), CLIENT_IP, 24);
        server.add_iface(MacAddr::local(2), SERVER_IP, 24);
        let mut events = Vec::new();
        let mut now = SimTime::ZERO;
        while now < until {
            now += SimDuration::from_millis(1);
            client.poll(now);
            server.poll(now);
            client_app.poll(now, &mut client, &mut events);
            server_app.poll(now, &mut server, &mut events);
            let cf = client.take_frames();
            let sf = server.take_frames();
            for (_, f) in cf {
                server.on_link_rx(now, 0, &f);
            }
            for (_, f) in sf {
                client.on_link_rx(now, 0, &f);
            }
        }
        events
    }

    #[test]
    fn download_workflow_verifies_genuine_file() {
        let mut rng = SimRng::new(Seed(3));
        let portal = download_portal(make_binary(&mut rng, 20_000));
        let mut server = HttpServerApp::new(80, portal.site.clone());
        let mut client = DownloadClient::new(
            SERVER_IP,
            "/download.html",
            SimTime::from_millis(5),
            SimDuration::from_secs(30),
        );
        run_pair(&mut client, &mut server, SimTime::from_secs(5));
        let o = client.outcome.as_ref().expect("finished");
        assert!(o.error.is_none(), "error: {:?}", o.error);
        assert!(o.page_fetched);
        assert_eq!(o.link.as_deref(), Some("file.tgz"));
        assert!(o.verified, "genuine download must verify");
        assert_eq!(o.file_len, 20_000);
        assert_eq!(o.file_bytes.as_ref().unwrap(), &portal.file);
        assert_eq!(o.file_server, Some(SERVER_IP));
        assert_eq!(server.requests_served, 2);
    }

    #[test]
    fn download_times_out_without_server() {
        struct Nop;
        impl App for Nop {
            fn poll(&mut self, _: SimTime, _: &mut Host, _: &mut Vec<AppEvent>) {}

            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let mut client = DownloadClient::new(
            Ipv4Addr::new(10, 0, 0, 99), // nobody home
            "/download.html",
            SimTime::from_millis(5),
            SimDuration::from_secs(2),
        );
        let mut nop = Nop;
        run_pair(&mut client, &mut nop, SimTime::from_secs(5));
        let o = client.outcome.as_ref().expect("finished");
        assert_eq!(o.error.as_deref(), Some("timeout"));
        assert!(!o.verified);
    }

    #[test]
    fn server_404s_unknown_paths() {
        let mut rng = SimRng::new(Seed(3));
        let portal = download_portal(make_binary(&mut rng, 100));
        let mut server = HttpServerApp::new(80, portal.site.clone());
        let mut client = DownloadClient::new(
            SERVER_IP,
            "/nonexistent.html",
            SimTime::from_millis(5),
            SimDuration::from_secs(10),
        );
        run_pair(&mut client, &mut server, SimTime::from_secs(5));
        let o = client.outcome.as_ref().expect("finished");
        assert_eq!(o.error.as_deref(), Some("page status 404"));
    }

    #[test]
    fn browser_detects_tampering_against_expected_body() {
        // Server serves a *different* body than the browser expects —
        // standing in for an in-path rewrite.
        let mut site = SiteContent::new();
        site.add("/index.html", "text/html", Bytes::from_static(b"EVIL"));
        let mut server = HttpServerApp::new(80, site);
        let mut browser = BrowserApp::new(
            SERVER_IP,
            "/index.html",
            Bytes::from_static(b"GENUINE"),
            SimTime::from_millis(5),
            SimDuration::from_millis(500),
        );
        let events = run_pair(&mut browser, &mut server, SimTime::from_secs(3));
        assert!(
            browser.pages_tampered >= 2,
            "tampered: {}",
            browser.pages_tampered
        );
        assert_eq!(browser.pages_ok, 0);
        assert!(events
            .iter()
            .any(|e| matches!(e, AppEvent::PageFetched { tampered: true, .. })));
    }

    #[test]
    fn browser_accepts_genuine_pages() {
        let body = Bytes::from_static(b"<html>news</html>");
        let mut site = SiteContent::new();
        site.add("/index.html", "text/html", body.clone());
        let mut server = HttpServerApp::new(80, site);
        let mut browser = BrowserApp::new(
            SERVER_IP,
            "/index.html",
            body,
            SimTime::from_millis(5),
            SimDuration::from_millis(500),
        );
        run_pair(&mut browser, &mut server, SimTime::from_secs(3));
        assert!(browser.pages_ok >= 2);
        assert_eq!(browser.pages_tampered, 0);
    }
}

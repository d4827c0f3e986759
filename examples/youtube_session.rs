//! Walk through the full YouTube control plane the way §3.1/§4 describe it:
//! watch URL → per-network DNS → web proxy → JSON video info → access token
//! → signature decipher (copyrighted video) → synthesized video URL →
//! multi-source streaming.
//!
//! ```sh
//! cargo run --release --example youtube_session
//! ```

use msplayer::core::config::PlayerConfig;
use msplayer::core::sim::{PathSetup, ServiceSpec, SessionHost, SessionSpec, StopCondition};
use msplayer::simcore::time::SimTime;
use msplayer::youtube::{
    parse_video_info, Catalog, DnsResolver, Network, ServiceConfig, Video, VideoId, YoutubeService,
    PROXY_DOMAIN,
};

fn main() {
    // A copyrighted video: the player must also fetch the decoder page.
    let url = "http://www.youtube.com/watch?v=qjT4T2gU9sM";
    let id = VideoId::from_watch_url(url).expect("valid watch URL");
    println!("watch URL: {url}\nvideo id:  {id}\n");

    let mut catalog = Catalog::new();
    catalog.add(Video::new(
        id,
        "A Copyrighted Documentary",
        "some-studio",
        msplayer::simcore::time::SimDuration::from_secs(600),
        true,
    ));
    let mut service = YoutubeService::new(99, catalog, ServiceConfig::default());

    // Per-network DNS views (the source-diversity mechanism of §2).
    for network in Network::ALL {
        let mut resolver = DnsResolver::new(network);
        let (ans, _) = resolver
            .resolve(
                service.zone(),
                PROXY_DOMAIN,
                SimTime::ZERO,
                msplayer::simcore::time::SimDuration::from_millis(30),
            )
            .expect("proxy resolves");
        println!("{network}: {PROXY_DOMAIN} -> {:?}", ans.addrs);
    }
    println!();

    // Watch request on each interface: each network gets its own JSON with
    // its own server list and a token bound to that interface's public IP.
    for (network, client_ip) in [
        (Network::Wifi, "203.0.113.7"),
        (Network::Cellular, "198.51.100.23"),
    ] {
        let json = service
            .watch_request(network, id, client_ip, SimTime::from_secs(1))
            .expect("watch ok");
        let info = parse_video_info(&json).expect("well-formed");
        println!("[{network}] JSON video info:");
        println!("  title:    {} by {}", info.title, info.author);
        println!("  servers:  {:?}", info.server_domains);
        println!("  token:    {}...", &info.token[..24.min(info.token.len())]);
        let f = info.format(22).expect("720p offered");
        println!(
            "  itag 22:  {} ({:.1} MB)",
            f.quality,
            f.size_bytes as f64 / 1e6
        );

        // Decipher the signature with the decoder from the "video page".
        let enc = info.enciphered_sig.clone().expect("copyrighted");
        let sig = service.decoder_page().decipher(&enc);
        println!("  signature: {enc} -> {sig}");
        let final_url = info.synthesize_url(22, Some(&sig)).expect("url");
        println!("  video URL: {final_url}\n");
    }

    // Now stream it end to end on the §6 YouTube profile.
    let spec = SessionSpec::new(99, PathSetup::youtube_pair(), PlayerConfig::msplayer())
        .with_stop(StopCondition::AfterRefills(1));
    let m = SessionHost::new(ServiceSpec::youtube())
        .run(&spec)
        .expect("valid spec");
    println!(
        "streamed: pre-buffer in {}, first refill in {:.2} s, WiFi share {:.0} %",
        m.prebuffer_time().expect("completed"),
        m.refills[0].duration().as_secs_f64(),
        m.traffic_fraction(0, msplayer::core::metrics::TrafficPhase::PreBuffering)
            .unwrap_or(0.0)
            * 100.0
    );
}

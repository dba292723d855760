//! A 3D (x, y, t) R-tree over trajectory segments.
//!
//! This is the "3D R-tree" of the paper's experimental study
//! (Theodoridis/Vazirgiannis/Sellis, ICMCS 1996): a classic Guttman R-tree
//! whose keys are the 3D minimum bounding boxes of individual trajectory
//! line segments. Insertion descends by least volume enlargement and
//! resolves overflows with the quadratic split; deletion finds the entry
//! by descending only into boxes that enclose it (Guttman's FindLeaf) and
//! condenses the path.

use mst_trajectory::{Mbb, Trajectory, TrajectoryId};

use crate::persist::{Image, ImageKind};
use crate::traits::Pager;
use crate::{
    IndexError, IndexStats, InternalEntry, LeafEntry, Node, PageId, PageStore, Result,
    TrajectoryIndex, INTERNAL_CAPACITY, LEAF_CAPACITY, PAGE_SIZE,
};

/// Minimum fill fraction enforced by the quadratic split.
pub(crate) const MIN_FILL_RATIO: f64 = 0.4;

/// One step of a root-to-leaf descent: a directory node as read, and the
/// slot of the child the descent took. Writers keep the decoded nodes so
/// the walk back up modifies them without reading the pages again.
struct PathStep {
    page: PageId,
    node: Node,
    slot: usize,
}

/// A Guttman-style 3D R-tree storing one entry per trajectory segment.
pub struct Rtree3D {
    pager: Pager,
    root: Option<PageId>,
    height: u8,
    num_entries: u64,
    max_speed: f64,
}

impl Rtree3D {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Rtree3D {
            pager: Pager::new(),
            root: None,
            height: 0,
            num_entries: 0,
            max_speed: 0.0,
        }
    }

    /// Inserts one trajectory segment.
    pub fn insert(&mut self, entry: LeafEntry) -> Result<()> {
        self.insert_impl(entry)?;
        self.paranoid_audit("insert");
        Ok(())
    }

    /// Audit hook behind the `paranoid` feature: re-validates the whole
    /// tree and the buffer accounting after a mutating operation. The I/O
    /// counters are snapshot-restored around the audit so measurements stay
    /// comparable with unaudited runs.
    #[cfg(feature = "paranoid")]
    fn paranoid_audit(&mut self, op: &str) {
        let disk = self.pager.store.stats();
        let buf = self.pager.pool.stats();
        let reads = self.pager.node_reads;
        let failure = crate::check_invariants(self).err();
        self.pager.store.set_stats(disk);
        self.pager.pool.set_stats(buf);
        self.pager.node_reads = reads;
        if let Some(reason) = failure {
            let _ = &reason;
            debug_assert!(false, "paranoid audit after {op}: {reason}");
        }
    }

    #[cfg(not(feature = "paranoid"))]
    #[inline(always)]
    fn paranoid_audit(&mut self, _op: &str) {}

    fn insert_impl(&mut self, entry: LeafEntry) -> Result<()> {
        self.max_speed = self.max_speed.max(entry.segment.speed());
        self.num_entries += 1;

        let Some(root) = self.root else {
            let node = Node::Leaf {
                entries: vec![entry],
                owner: None,
                prev: None,
                next: None,
            };
            self.root = Some(self.pager.allocate_node(&node)?);
            self.height = 1;
            return Ok(());
        };

        let (page, mut node, path) = self.choose_node(root, &entry.mbb(), 0)?;
        let Node::Leaf { entries, .. } = &mut node else {
            return Err(IndexError::CorruptNode {
                page,
                reason: "descent ended on an internal node".into(),
            });
        };
        entries.push(entry);
        self.settle(page, node, path)
    }

    /// Re-attaches the subtree behind `child` to a node at `level` (one
    /// above the subtree's root), so its leaves stay at the depth of every
    /// other leaf. Used by `condense` for the children of a
    /// dissolved directory node.
    fn reinsert_subtree(&mut self, child: InternalEntry, level: u8) -> Result<()> {
        let Some(root) = self.root else {
            return Err(IndexError::CorruptNode {
                page: child.child,
                reason: "orphaned subtree left without a tree to rejoin".into(),
            });
        };
        let (page, mut node, path) = self.choose_node(root, &child.mbb, level)?;
        match &mut node {
            Node::Internal { level: l, entries } if *l == level => entries.push(child),
            _ => {
                return Err(IndexError::CorruptNode {
                    page,
                    reason: format!("no directory node at level {level} to hold a subtree"),
                })
            }
        }
        self.settle(page, node, path)
    }

    /// Descends from `root` by least volume enlargement for `mbb` to the
    /// first node at or below `level`, returning its page, the decoded
    /// node and the root-to-parent path.
    fn choose_node(
        &mut self,
        root: PageId,
        mbb: &Mbb,
        level: u8,
    ) -> Result<(PageId, Node, Vec<PathStep>)> {
        let mut path: Vec<PathStep> = Vec::with_capacity(self.height as usize);
        let mut page = root;
        loop {
            let node = self.pager.read_node(page)?;
            let (slot, child) = match &node {
                Node::Internal { level: l, entries } if *l > level => {
                    let slot = choose_subtree(entries, mbb);
                    (slot, entries[slot].child)
                }
                _ => return Ok((page, node, path)),
            };
            path.push(PathStep { page, node, slot });
            page = child;
        }
    }

    /// Writes back `node` (which just gained an entry), splitting it on
    /// overflow, then walks `path` upward refreshing each parent's MBB of
    /// the modified child and absorbing any split; a root split grows the
    /// tree by one level.
    fn settle(&mut self, page: PageId, node: Node, path: Vec<PathStep>) -> Result<()> {
        let old_root = path.first().map_or(page, |step| step.page);
        let (mut updated_mbb, mut split) = self.write_or_split(page, node)?;
        for PathStep {
            page: parent_page,
            node: mut parent,
            slot,
        } in path.into_iter().rev()
        {
            let Node::Internal { entries, .. } = &mut parent else {
                return Err(IndexError::CorruptNode {
                    page: parent_page,
                    reason: "path node is not internal".into(),
                });
            };
            entries[slot].mbb = updated_mbb;
            entries.extend(split.take());
            (updated_mbb, split) = self.write_or_split(parent_page, parent)?;
        }
        if let Some(new_entry) = split {
            let new_root = Node::Internal {
                level: self.height,
                entries: vec![
                    InternalEntry {
                        child: old_root,
                        mbb: updated_mbb,
                    },
                    new_entry,
                ],
            };
            self.root = Some(self.pager.allocate_node(&new_root)?);
            self.height += 1;
        }
        Ok(())
    }

    /// Writes `node` to `page`, or — when it overflows — splits it with
    /// the quadratic split, keeping one half in `page` and allocating a
    /// page for the other. Returns the MBB of what `page` now holds and
    /// the parent entry for the new sibling, if any.
    fn write_or_split(&mut self, page: PageId, node: Node) -> Result<(Mbb, Option<InternalEntry>)> {
        if node.len() <= node.capacity() {
            let mbb = node.mbb();
            self.pager.write_node(page, &node)?;
            return Ok((mbb, None));
        }
        let min_fill = (node.capacity() as f64 * MIN_FILL_RATIO).ceil() as usize;
        let (a, b) = match node {
            Node::Leaf { entries, .. } => {
                let items: Vec<(Mbb, LeafEntry)> = entries.iter().map(|e| (e.mbb(), *e)).collect();
                let (a, b) = quadratic_split(items, min_fill);
                let leaf = |group: SplitGroup<LeafEntry>| Node::Leaf {
                    entries: group.into_iter().map(|(_, e)| e).collect(),
                    owner: None,
                    prev: None,
                    next: None,
                };
                (leaf(a), leaf(b))
            }
            Node::Internal { level, entries } => {
                let items: Vec<(Mbb, InternalEntry)> =
                    entries.iter().map(|e| (e.mbb, *e)).collect();
                let (a, b) = quadratic_split(items, min_fill);
                let internal = |group: SplitGroup<InternalEntry>| Node::Internal {
                    level,
                    entries: group.into_iter().map(|(_, e)| e).collect(),
                };
                (internal(a), internal(b))
            }
        };
        let mbb = a.mbb();
        self.pager.write_node(page, &a)?;
        let new_page = self.pager.allocate_node(&b)?;
        Ok((
            mbb,
            Some(InternalEntry {
                child: new_page,
                mbb: b.mbb(),
            }),
        ))
    }

    /// Builds a tree bottom-up from a batch of entries with Sort-Tile-
    /// Recursive packing (Leutenegger et al.): leaves are filled to
    /// capacity along an x/y/t tiling, then each directory level is packed
    /// the same way. Produces a noticeably smaller, better-clustered tree
    /// than one-by-one insertion — the right tool for loading historical
    /// trajectory archives.
    pub fn bulk_load(entries: Vec<LeafEntry>) -> Result<Self> {
        let mut tree = Rtree3D::new();
        if entries.is_empty() {
            return Ok(tree);
        }
        tree.num_entries = entries.len() as u64;
        tree.max_speed = entries
            .iter()
            .map(|e| e.segment.speed())
            .fold(0.0, f64::max);

        // Pack the leaf level.
        let mut items: Vec<(Mbb, LeafEntry)> = entries.into_iter().map(|e| (e.mbb(), e)).collect();
        let mut groups: Vec<Vec<(Mbb, LeafEntry)>> = Vec::new();
        str_pack(&mut items, LEAF_CAPACITY, 3, &mut groups);
        let mut level_entries: Vec<InternalEntry> = Vec::with_capacity(groups.len());
        for g in groups {
            let node = Node::Leaf {
                entries: g.into_iter().map(|(_, e)| e).collect(),
                owner: None,
                prev: None,
                next: None,
            };
            let mbb = node.mbb();
            let page = tree.pager.allocate_node(&node)?;
            level_entries.push(InternalEntry { child: page, mbb });
        }
        tree.height = 1;

        // Pack directory levels until one node remains.
        while level_entries.len() > 1 {
            let mut items: Vec<(Mbb, InternalEntry)> =
                level_entries.into_iter().map(|e| (e.mbb, e)).collect();
            let mut groups: Vec<Vec<(Mbb, InternalEntry)>> = Vec::new();
            str_pack(&mut items, INTERNAL_CAPACITY, 3, &mut groups);
            let mut next: Vec<InternalEntry> = Vec::with_capacity(groups.len());
            for g in groups {
                let node = Node::Internal {
                    level: tree.height,
                    entries: g.into_iter().map(|(_, e)| e).collect(),
                };
                let mbb = node.mbb();
                let page = tree.pager.allocate_node(&node)?;
                next.push(InternalEntry { child: page, mbb });
            }
            level_entries = next;
            tree.height += 1;
        }
        tree.root = Some(level_entries[0].child);
        tree.paranoid_audit("bulk_load");
        Ok(tree)
    }

    /// Inserts every segment of `trajectory` under `id` (sequence numbers
    /// follow the segment order).
    pub fn insert_trajectory(&mut self, id: TrajectoryId, trajectory: &Trajectory) -> Result<()> {
        for (seq, segment) in trajectory.segments().enumerate() {
            self.insert(LeafEntry {
                traj: id,
                seq: seq as u32,
                segment,
            })?;
        }
        Ok(())
    }

    /// Flushes dirty buffered pages to the page store.
    pub fn flush(&mut self) -> Result<()> {
        self.pager.pool.flush(&mut self.pager.store)
    }

    /// Serializes the whole index into `writer` (dirty pages are flushed
    /// first, so the image is a faithful snapshot). The image carries LSN 0
    /// — use [`Rtree3D::save_lsn`] when the tree lives under a write-ahead
    /// log.
    pub fn save<W: std::io::Write>(&mut self, writer: W) -> Result<()> {
        self.save_lsn(writer, 0)
    }

    /// Serializes the whole index into `writer`, stamping the image with
    /// the log sequence number it is consistent through.
    pub fn save_lsn<W: std::io::Write>(&mut self, writer: W, lsn: u64) -> Result<()> {
        self.flush()?;
        let image = Image {
            kind: ImageKind::Rtree3D,
            lsn,
            root: self.root,
            height: self.height,
            entries: self.num_entries,
            max_speed: self.max_speed,
            pages: self.pager.store.raw_pages().map(Box::from).collect(),
            free_list: self.pager.store.free_list().to_vec(),
            tips: Vec::new(),
            parents: Vec::new(),
        };
        image.write_to(writer)
    }

    /// Saves the index to a file.
    pub fn save_to_path<P: AsRef<std::path::Path>>(&mut self, path: P) -> Result<()> {
        let file = std::fs::File::create(path).map_err(|e| IndexError::Persist(e.to_string()))?;
        self.save(std::io::BufWriter::new(file))
    }

    /// Reconstructs an index from a persisted image.
    pub fn load<R: std::io::Read>(reader: R) -> Result<Self> {
        Ok(Self::load_lsn(reader)?.0)
    }

    /// Reconstructs an index from a persisted image, also returning the log
    /// sequence number the image is consistent through.
    pub fn load_lsn<R: std::io::Read>(reader: R) -> Result<(Self, u64)> {
        let image = Image::read_from(reader)?;
        if image.kind != ImageKind::Rtree3D {
            return Err(IndexError::Persist(
                "image holds a TB-tree, not a 3D R-tree".into(),
            ));
        }
        let lsn = image.lsn;
        let store = PageStore::from_raw(image.pages, image.free_list);
        Ok((
            Rtree3D {
                pager: Pager::from_store(store),
                root: image.root,
                height: image.height,
                num_entries: image.entries,
                max_speed: image.max_speed,
            },
            lsn,
        ))
    }

    /// Loads an index from a file.
    pub fn load_from_path<P: AsRef<std::path::Path>>(path: P) -> Result<Self> {
        let file = std::fs::File::open(path).map_err(|e| IndexError::Persist(e.to_string()))?;
        Self::load(std::io::BufReader::new(file))
    }

    /// Deletes one segment entry, condensing the tree à la Guttman:
    /// underfull nodes on the path are dissolved and their surviving
    /// entries reinserted; freed pages return to the store.
    ///
    /// The entry is located with Guttman's FindLeaf: the descent enters
    /// only children whose MBB encloses `entry.mbb()`, so a delete reads
    /// about as many pages as an insert rather than the whole tree. A
    /// stored entry matches when its `(traj, seq)` *and* its segment equal
    /// `entry`'s. Returns `false` when no such entry exists, including an
    /// entry whose id and sequence number match but whose geometry does
    /// not; the tree is then unchanged.
    ///
    /// `max_speed` is intentionally *not* recomputed — it remains a sound
    /// (if possibly loose) upper bound for the Vmax-based pruning metrics.
    pub fn delete(&mut self, entry: &LeafEntry) -> Result<bool> {
        let deleted = self.delete_impl(entry)?;
        self.paranoid_audit("delete");
        Ok(deleted)
    }

    fn delete_impl(&mut self, entry: &LeafEntry) -> Result<bool> {
        let Some(root) = self.root else {
            return Ok(false);
        };
        let mut path: Vec<PathStep> = Vec::with_capacity(self.height as usize);
        let Some((leaf_page, entries)) = self.find_leaf(root, entry, &entry.mbb(), &mut path)?
        else {
            return Ok(false);
        };
        let node = Node::Leaf {
            entries,
            owner: None,
            prev: None,
            next: None,
        };
        self.num_entries -= 1;
        self.pager.write_node(leaf_page, &node)?;
        self.condense(leaf_page, node, path)?;
        Ok(true)
    }

    /// Guttman's FindLeaf: descends only into children whose MBB encloses
    /// `mbb` (the entry's own box), recording the root-to-parent path of
    /// the match. Every parent MBB is the exact min/max union of its
    /// children's, so the comparison needs no tolerance. Returns the leaf's
    /// page and its entries with the match already taken out.
    fn find_leaf(
        &mut self,
        page: PageId,
        entry: &LeafEntry,
        mbb: &Mbb,
        path: &mut Vec<PathStep>,
    ) -> Result<Option<(PageId, Vec<LeafEntry>)>> {
        let (level, entries) = match self.pager.read_node(page)? {
            Node::Leaf { mut entries, .. } => {
                let Some(idx) = entries.iter().position(|e| e == entry) else {
                    return Ok(None);
                };
                entries.remove(idx);
                return Ok(Some((page, entries)));
            }
            Node::Internal { level, entries } => (level, entries),
        };
        let candidates: Vec<(usize, PageId)> = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.mbb.encloses(mbb))
            .map(|(slot, e)| (slot, e.child))
            .collect();
        path.push(PathStep {
            page,
            node: Node::Internal { level, entries },
            slot: 0,
        });
        for (slot, child) in candidates {
            if let Some(step) = path.last_mut() {
                step.slot = slot;
            }
            if let Some(found) = self.find_leaf(child, entry, mbb, path)? {
                return Ok(Some(found));
            }
        }
        path.pop();
        Ok(None)
    }

    /// Guttman's CondenseTree: walk the deletion path upward, dissolving
    /// underfull nodes and tightening ancestor MBBs; then reinsert what the
    /// dissolved nodes held — leaf entries into leaves, a directory node's
    /// children as whole subtrees at its own level — and finally shrink the
    /// root while it has a single child.
    fn condense(
        &mut self,
        mut child_page: PageId,
        mut child_node: Node,
        path: Vec<PathStep>,
    ) -> Result<()> {
        let mut orphans: Vec<Node> = Vec::new();
        for PathStep {
            page: parent_page,
            node: mut parent,
            slot: child_idx,
        } in path.into_iter().rev()
        {
            let Node::Internal { entries, .. } = &mut parent else {
                return Err(IndexError::CorruptNode {
                    page: parent_page,
                    reason: "deletion path holds a leaf above level 0".into(),
                });
            };
            let min_fill = (child_node.capacity() as f64 * MIN_FILL_RATIO).ceil() as usize;
            if child_node.len() < min_fill {
                // Dissolve the child: free its page, drop it from the
                // parent, keep its contents for reinsertion.
                self.pager.free_node(child_page)?;
                entries.remove(child_idx);
                orphans.push(child_node);
            } else {
                entries[child_idx].mbb = child_node.mbb();
            }
            self.pager.write_node(parent_page, &parent)?;
            child_page = parent_page;
            child_node = parent;
        }

        // The root is never dissolved, so the tree keeps its height while
        // the orphans go back in. `insert_impl` counts entries, so
        // compensate; the unaudited paths are deliberate — the tree is
        // transiently inconsistent until the last orphan lands, and the
        // delete wrapper audits the final state.
        if !orphans.is_empty() {
            for node in orphans {
                match node {
                    Node::Leaf { entries, .. } => {
                        for e in entries {
                            self.num_entries -= 1;
                            self.insert_impl(e)?;
                        }
                    }
                    Node::Internal { level, entries } => {
                        for e in entries {
                            self.reinsert_subtree(e, level)?;
                        }
                    }
                }
            }
            // Reinsertion may have split the root: start from the current one.
            child_page = self.root.unwrap_or(child_page);
            child_node = self.pager.read_node(child_page)?;
        }

        // Shrink the root: empty leaf -> empty tree; single-child internal
        // chains collapse.
        loop {
            match &child_node {
                Node::Leaf { entries, .. } => {
                    if entries.is_empty() {
                        self.pager.free_node(child_page)?;
                        self.root = None;
                        self.height = 0;
                    }
                    break;
                }
                Node::Internal { entries, .. } => match entries.len() {
                    0 => {
                        self.pager.free_node(child_page)?;
                        self.root = None;
                        self.height = 0;
                        break;
                    }
                    1 => {
                        let only = entries[0].child;
                        self.pager.free_node(child_page)?;
                        self.root = Some(only);
                        self.height -= 1;
                        child_page = only;
                        child_node = self.pager.read_node(only)?;
                    }
                    _ => break,
                },
            }
        }
        Ok(())
    }
}

impl Default for Rtree3D {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
impl Rtree3D {
    /// Test-only: overwrite a node's page, bypassing every invariant — used
    /// by the validator's negative tests to plant corruption.
    pub(crate) fn corrupt_node_for_tests(&mut self, page: PageId, node: &Node) -> Result<()> {
        self.pager.write_node(page, node)
    }

    /// Test-only: desynchronize the entry counter.
    pub(crate) fn set_num_entries_for_tests(&mut self, n: u64) {
        self.num_entries = n;
    }

    /// Test-only: pin a resident page and never unpin it (a simulated leak).
    pub(crate) fn leak_pin_for_tests(&mut self, page: PageId) -> Result<()> {
        self.pager.pool.pin(page)
    }
}

impl crate::TrajectoryIndexWrite for Rtree3D {
    fn insert_entry(&mut self, entry: LeafEntry) -> Result<()> {
        self.insert(entry)
    }

    fn delete_entry(&mut self, entry: &LeafEntry) -> Result<bool> {
        self.delete(entry)
    }
}

impl TrajectoryIndex for Rtree3D {
    fn root(&self) -> Option<PageId> {
        self.root
    }

    fn read_node(&mut self, page: PageId) -> Result<Node> {
        self.pager.read_node(page)
    }

    fn read_node_traced<S: crate::metrics::MetricsSink>(
        &mut self,
        page: PageId,
        sink: &mut S,
    ) -> Result<Node> {
        self.pager.read_node_traced(page, sink)
    }

    fn num_pages(&self) -> usize {
        self.pager.store.num_pages()
    }

    fn num_entries(&self) -> u64 {
        self.num_entries
    }

    fn height(&self) -> u8 {
        self.height
    }

    fn max_speed(&self) -> f64 {
        self.max_speed
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            pages: self.pager.store.num_pages(),
            size_bytes: self.pager.store.num_pages() * PAGE_SIZE,
            height: self.height,
            entries: self.num_entries,
            node_reads: self.pager.node_reads,
            disk: self.pager.store.stats(),
            buffer: self.pager.pool.stats(),
        }
    }

    fn reset_stats(&mut self) {
        self.pager.reset_stats();
    }

    fn clear_buffer(&mut self) -> Result<()> {
        self.pager.clear_buffer()
    }

    fn set_buffer_capacity(&mut self, capacity: Option<usize>) -> Result<()> {
        self.pager.set_fixed_capacity(capacity)
    }

    fn set_fault_injection(&mut self, config: Option<crate::fault::FaultConfig>) -> Result<()> {
        self.pager.set_fault_injection(config);
        Ok(())
    }

    fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        self.pager.store.fault_stats()
    }

    fn audit_buffer(&self) -> std::result::Result<(), String> {
        self.pager.audit()
    }
}

/// Picks the child whose MBB needs the least volume enlargement to absorb
/// `mbb` (ties broken by smaller volume, then by index for determinism).
pub(crate) fn choose_subtree(entries: &[InternalEntry], mbb: &Mbb) -> usize {
    let mut best = 0;
    let mut best_enlargement = f64::INFINITY;
    let mut best_volume = f64::INFINITY;
    for (i, e) in entries.iter().enumerate() {
        let enlargement = e.mbb.enlargement(mbb);
        let volume = e.mbb.volume();
        if enlargement < best_enlargement
            || (enlargement == best_enlargement && volume < best_volume)
        {
            best = i;
            best_enlargement = enlargement;
            best_volume = volume;
        }
    }
    best
}

/// One half of a quadratic split: boxed items assigned to a group.
pub(crate) type SplitGroup<T> = Vec<(Mbb, T)>;

/// Guttman's quadratic split: pick the pair of seeds wasting the most dead
/// space, then assign each remaining item to the group whose MBB grows the
/// least, forcing assignment when a group must take everything left to reach
/// the minimum fill.
pub(crate) fn quadratic_split<T: Copy>(
    items: Vec<(Mbb, T)>,
    min_fill: usize,
) -> (SplitGroup<T>, SplitGroup<T>) {
    debug_assert!(items.len() >= 2);
    // Seed selection: maximize union volume minus the two volumes.
    let (mut seed_a, mut seed_b) = (0, 1);
    let mut worst = f64::NEG_INFINITY;
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let dead =
                items[i].0.union(&items[j].0).volume() - items[i].0.volume() - items[j].0.volume();
            if dead > worst {
                worst = dead;
                seed_a = i;
                seed_b = j;
            }
        }
    }

    let mut group_a: Vec<(Mbb, T)> = vec![items[seed_a]];
    let mut group_b: Vec<(Mbb, T)> = vec![items[seed_b]];
    let mut mbb_a = items[seed_a].0;
    let mut mbb_b = items[seed_b].0;

    let mut rest: Vec<(Mbb, T)> = items
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| i != seed_a && i != seed_b)
        .map(|(_, it)| it)
        .collect();

    while let Some(next) = pick_next(&rest, &mbb_a, &mbb_b) {
        let remaining = rest.len();
        // Forced assignment to honour the minimum fill.
        if group_a.len() + remaining <= min_fill {
            for it in rest.drain(..) {
                mbb_a = mbb_a.union(&it.0);
                group_a.push(it);
            }
            break;
        }
        if group_b.len() + remaining <= min_fill {
            for it in rest.drain(..) {
                mbb_b = mbb_b.union(&it.0);
                group_b.push(it);
            }
            break;
        }
        let it = rest.swap_remove(next);
        let grow_a = mbb_a.enlargement(&it.0);
        let grow_b = mbb_b.enlargement(&it.0);
        let to_a = match grow_a.partial_cmp(&grow_b) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => {
                // Tie: smaller volume, then fewer entries.
                if mbb_a.volume() != mbb_b.volume() {
                    mbb_a.volume() < mbb_b.volume()
                } else {
                    group_a.len() <= group_b.len()
                }
            }
        };
        if to_a {
            mbb_a = mbb_a.union(&it.0);
            group_a.push(it);
        } else {
            mbb_b = mbb_b.union(&it.0);
            group_b.push(it);
        }
    }
    (group_a, group_b)
}

/// PickNext of the quadratic split: the remaining item with the greatest
/// preference (|enlargement difference|) for one group over the other.
fn pick_next<T>(rest: &[(Mbb, T)], mbb_a: &Mbb, mbb_b: &Mbb) -> Option<usize> {
    if rest.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut best_pref = f64::NEG_INFINITY;
    for (i, (mbb, _)) in rest.iter().enumerate() {
        let pref = (mbb_a.enlargement(mbb) - mbb_b.enlargement(mbb)).abs();
        if pref > best_pref {
            best_pref = pref;
            best = i;
        }
    }
    Some(best)
}

/// Sort-Tile-Recursive partitioning: recursively sorts by the current
/// dimension's box center (x, then y, then t), slices into
/// `ceil(P^(1/dims))` slabs, and recurses with one dimension fewer; the
/// base case chunks a run into capacity-sized groups.
pub(crate) fn str_pack<T: Copy>(
    items: &mut [(Mbb, T)],
    cap: usize,
    dims: usize,
    out: &mut Vec<Vec<(Mbb, T)>>,
) {
    if items.len() <= cap {
        out.push(items.to_vec());
        return;
    }
    let center = |m: &Mbb, d: usize| match d {
        3 => 0.5 * (m.x_min + m.x_max),
        2 => 0.5 * (m.y_min + m.y_max),
        _ => 0.5 * (m.t_min + m.t_max),
    };
    if dims <= 1 {
        items.sort_by(|a, b| center(&a.0, 1).total_cmp(&center(&b.0, 1)));
        for chunk in items.chunks(cap) {
            out.push(chunk.to_vec());
        }
        return;
    }
    let pages = items.len().div_ceil(cap);
    let slabs = (pages as f64).powf(1.0 / dims as f64).ceil() as usize;
    let slab_size = items.len().div_ceil(slabs.max(1));
    items.sort_by(|a, b| center(&a.0, dims).total_cmp(&center(&b.0, dims)));
    for chunk in items.chunks_mut(slab_size.max(cap)) {
        str_pack(chunk, cap, dims - 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_trajectory::{SamplePoint, Segment};

    fn seg(t0: f64, x0: f64, y0: f64, t1: f64, x1: f64, y1: f64) -> Segment {
        Segment::new(SamplePoint::new(t0, x0, y0), SamplePoint::new(t1, x1, y1)).unwrap()
    }

    fn entry(id: u64, seq: u32, t: f64, x: f64, y: f64) -> LeafEntry {
        LeafEntry {
            traj: TrajectoryId(id),
            seq,
            segment: seg(t, x, y, t + 1.0, x + 0.5, y + 0.25),
        }
    }

    #[test]
    fn empty_tree_has_no_root() {
        let t = Rtree3D::new();
        assert!(t.root().is_none());
        assert_eq!(t.num_entries(), 0);
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn single_insert_creates_leaf_root() {
        let mut t = Rtree3D::new();
        t.insert(entry(1, 0, 0.0, 0.0, 0.0)).unwrap();
        assert_eq!(t.height(), 1);
        let root = t.root().unwrap();
        let node = t.read_node(root).unwrap();
        assert!(node.is_leaf());
        assert_eq!(node.len(), 1);
    }

    #[test]
    fn grows_and_keeps_all_entries() {
        let mut t = Rtree3D::new();
        let n = 1000u32;
        for i in 0..n {
            // Scatter deterministically.
            let x = (i as f64 * 17.0) % 97.0;
            let y = (i as f64 * 29.0) % 89.0;
            t.insert(entry(u64::from(i % 50), i / 50, i as f64, x, y))
                .unwrap();
        }
        assert_eq!(t.num_entries(), u64::from(n));
        assert!(t.height() >= 2, "1000 entries must overflow one leaf");
        // Every entry is reachable via a full-space range query.
        let all = t
            .range_query(&Mbb::new(
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::INFINITY,
                f64::INFINITY,
            ))
            .unwrap();
        assert_eq!(all.len(), n as usize);
        crate::check_invariants(&mut t).unwrap();
    }

    #[test]
    fn range_query_filters_spatially() {
        let mut t = Rtree3D::new();
        for i in 0..200u32 {
            let x = f64::from(i % 20) * 10.0;
            let y = f64::from(i / 20) * 10.0;
            t.insert(entry(u64::from(i), 0, f64::from(i), x, y))
                .unwrap();
        }
        // A window that covers x in [0, 15], y in [0, 15], all times: only
        // entries whose segment boxes intersect it qualify.
        let window = Mbb::new(0.0, 0.0, 0.0, 15.0, 15.0, 1e9);
        let hits = t.range_query(&window).unwrap();
        assert!(!hits.is_empty());
        for e in &hits {
            assert!(e.mbb().intersects(&window));
        }
        // Complement check against a scan of all entries.
        let all = t
            .range_query(&Mbb::new(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9))
            .unwrap();
        let expected = all.iter().filter(|e| e.mbb().intersects(&window)).count();
        assert_eq!(hits.len(), expected);
    }

    #[test]
    fn max_speed_tracks_fastest_segment() {
        let mut t = Rtree3D::new();
        t.insert(LeafEntry {
            traj: TrajectoryId(1),
            seq: 0,
            segment: seg(0.0, 0.0, 0.0, 1.0, 3.0, 4.0), // speed 5
        })
        .unwrap();
        t.insert(LeafEntry {
            traj: TrajectoryId(2),
            seq: 0,
            segment: seg(0.0, 0.0, 0.0, 2.0, 2.0, 0.0), // speed 1
        })
        .unwrap();
        assert_eq!(t.max_speed(), 5.0);
    }

    #[test]
    fn quadratic_split_respects_min_fill() {
        let items: Vec<(Mbb, u32)> = (0..10)
            .map(|i| {
                let f = f64::from(i);
                (Mbb::new(f, f, f, f + 1.0, f + 1.0, f + 1.0), i as u32)
            })
            .collect();
        let (a, b) = quadratic_split(items, 4);
        assert_eq!(a.len() + b.len(), 10);
        assert!(a.len() >= 4 && b.len() >= 4);
    }

    #[test]
    fn split_separates_distant_clusters() {
        // Two tight clusters far apart should end up in different groups.
        let mut items: Vec<(Mbb, u32)> = Vec::new();
        for i in 0..5 {
            let f = f64::from(i) * 0.1;
            items.push((Mbb::new(f, f, f, f + 0.1, f + 0.1, f + 0.1), i as u32));
        }
        for i in 0..5 {
            let f = 1000.0 + f64::from(i) * 0.1;
            items.push((Mbb::new(f, f, f, f + 0.1, f + 0.1, f + 0.1), 100 + i as u32));
        }
        let (a, b) = quadratic_split(items, 2);
        let a_low = a.iter().all(|&(_, v)| v < 100) || a.iter().all(|&(_, v)| v >= 100);
        let b_low = b.iter().all(|&(_, v)| v < 100) || b.iter().all(|&(_, v)| v >= 100);
        assert!(a_low && b_low, "clusters were mixed: {a:?} {b:?}");
    }

    #[test]
    fn delete_removes_entry_and_preserves_invariants() {
        let mut t = Rtree3D::new();
        let n = 600u32;
        let entries: Vec<LeafEntry> = (0..n)
            .map(|i| {
                let x = (f64::from(i) * 13.0) % 83.0;
                let y = (f64::from(i) * 7.0) % 41.0;
                entry(u64::from(i % 20), i / 20, f64::from(i), x, y)
            })
            .collect();
        for e in &entries {
            t.insert(*e).unwrap();
        }
        // Delete every third entry.
        let mut deleted = 0u64;
        for e in entries.iter().step_by(3) {
            assert!(t.delete(e).unwrap());
            deleted += 1;
        }
        assert_eq!(t.num_entries(), u64::from(n) - deleted);
        crate::check_invariants(&mut t).unwrap();
        // Deleted entries are gone; survivors remain findable.
        let all = t
            .range_query(&Mbb::new(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9))
            .unwrap();
        assert_eq!(all.len() as u64, u64::from(n) - deleted);
        assert!(!all.iter().any(|e| e.traj == TrajectoryId(0) && e.seq == 0));
    }

    #[test]
    fn delete_missing_entry_returns_false() {
        let mut t = Rtree3D::new();
        t.insert(entry(1, 0, 0.0, 0.0, 0.0)).unwrap();
        assert!(!t.delete(&entry(9, 0, 0.0, 0.0, 0.0)).unwrap());
        assert!(!t.delete(&entry(1, 5, 0.0, 0.0, 0.0)).unwrap());
        assert_eq!(t.num_entries(), 1);
    }

    #[test]
    fn delete_with_matching_id_but_other_geometry_leaves_the_tree_unchanged() {
        let mut t = Rtree3D::new();
        for i in 0..400u32 {
            t.insert(entry(
                u64::from(i % 10),
                i / 10,
                f64::from(i),
                f64::from(i % 13),
                0.0,
            ))
            .unwrap();
        }
        let stored = entry(3, 7, 73.0, f64::from(73 % 13), 0.0);
        let everything = Mbb::new(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9);
        let mut before = t.range_query(&everything).unwrap();
        before.sort_by_key(|e| (e.traj, e.seq));
        let pages = t.num_pages();
        // Same (traj, seq), moved in space; then one inside the stored
        // box but with its own endpoints: neither is the stored entry.
        let moved = entry(3, 7, 73.0, 50.0, 50.0);
        let inner = LeafEntry {
            segment: seg(73.25, 8.1, 0.05, 73.75, 8.3, 0.2),
            ..stored
        };
        assert!(stored.mbb().encloses(&inner.mbb()));
        for wrong in [moved, inner] {
            assert!(!t.delete(&wrong).unwrap());
            assert_eq!(t.num_entries(), 400);
            assert_eq!(t.num_pages(), pages);
            let mut after = t.range_query(&everything).unwrap();
            after.sort_by_key(|e| (e.traj, e.seq));
            assert_eq!(after, before);
        }
        crate::check_invariants(&mut t).unwrap();
        assert!(t.delete(&stored).unwrap());
        assert_eq!(t.num_entries(), 399);
    }

    #[test]
    fn delete_everything_empties_the_tree_and_reuses_pages() {
        let mut t = Rtree3D::new();
        let n = 300u32;
        for i in 0..n {
            t.insert(entry(u64::from(i), 0, f64::from(i), f64::from(i % 9), 0.0))
                .unwrap();
        }
        let pages_full = t.num_pages();
        for i in 0..n {
            let e = entry(u64::from(i), 0, f64::from(i), f64::from(i % 9), 0.0);
            assert!(t.delete(&e).unwrap(), "i={i}");
        }
        assert_eq!(t.num_entries(), 0);
        assert!(t.root().is_none());
        assert_eq!(t.height(), 0);
        crate::check_invariants(&mut t).unwrap();
        // Freed pages are recycled by fresh insertions.
        for i in 0..n {
            t.insert(entry(u64::from(i), 1, f64::from(i), f64::from(i % 9), 1.0))
                .unwrap();
        }
        assert!(
            t.num_pages() <= pages_full + 4,
            "rebuild used {} pages vs {} before",
            t.num_pages(),
            pages_full
        );
        crate::check_invariants(&mut t).unwrap();
    }

    #[test]
    fn interleaved_insert_delete_stays_consistent() {
        let mut t = Rtree3D::new();
        let mut live: Vec<LeafEntry> = Vec::new();
        let mut x: u64 = 0xDEADBEEF;
        for step in 0..1500u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let coin = (x >> 60) % 4;
            if coin == 0 && !live.is_empty() {
                let idx = (x >> 20) as usize % live.len();
                let e = live.swap_remove(idx);
                assert!(t.delete(&e).unwrap());
            } else {
                let tr = u64::from(step % 30);
                let seq = step;
                let fx = f64::from((x >> 10) as u32 % 1000) / 10.0;
                let fy = f64::from((x >> 30) as u32 % 1000) / 10.0;
                let e = entry(tr, seq, f64::from(step), fx, fy);
                t.insert(e).unwrap();
                live.push(e);
            }
        }
        assert_eq!(t.num_entries() as usize, live.len());
        crate::check_invariants(&mut t).unwrap();
    }

    #[test]
    fn dissolved_directory_nodes_rejoin_as_subtrees() {
        // STR packs these entries into 100 leaves under two level-1 nodes
        // (78 + 22 children) and a level-2 root. The small one is
        // underfull, so the first delete below it dissolves it, and its
        // leaves rejoin the tree as whole subtrees: no leaf is broken up,
        // every leaf stays at depth 2.
        let entries: Vec<LeafEntry> = (0..90 * LEAF_CAPACITY as u32)
            .map(|i| {
                let x = (f64::from(i) * 13.7) % 211.0;
                let y = (f64::from(i) * 7.1) % 157.0;
                entry(u64::from(i % 50), i / 50, f64::from(i), x, y)
            })
            .collect();
        let mut t = Rtree3D::bulk_load(entries.clone()).unwrap();
        assert_eq!(t.height(), 3);
        let leaves_before = crate::check_invariants(&mut t).unwrap().leaves;
        let children = |t: &mut Rtree3D| -> Vec<InternalEntry> {
            match t.read_node(t.root().unwrap()).unwrap() {
                Node::Internal { entries, .. } => entries,
                Node::Leaf { .. } => panic!("root is a leaf"),
            }
        };
        let small = children(&mut t)
            .into_iter()
            .min_by_key(|c| t.pager.read_node(c.child).unwrap().len())
            .unwrap();
        let Node::Internal {
            entries: leaves, ..
        } = t.read_node(small.child).unwrap()
        else {
            panic!("level-1 node is a leaf");
        };
        assert!(leaves.len() < 32, "{} children", leaves.len());
        let Node::Leaf { entries: held, .. } = t.read_node(leaves[0].child).unwrap() else {
            panic!("level-0 node is internal");
        };
        assert!(t.delete(&held[0]).unwrap());
        assert_eq!(t.height(), 3);
        // The rejoining subtrees overflowed the big node, which split.
        for c in children(&mut t) {
            let len = t.read_node(c.child).unwrap().len();
            assert!((32..=INTERNAL_CAPACITY).contains(&len), "{len} children");
        }
        let report = crate::check_invariants(&mut t).unwrap();
        assert_eq!(report.leaves, leaves_before);
        assert_eq!(report.entries, entries.len() as u64 - 1);

        // Random deletes on top, dissolving leaves and directory nodes.
        let mut order: Vec<LeafEntry> = entries.into_iter().filter(|e| *e != held[0]).collect();
        mst_prng::Rng::seed_from(7).shuffle(&mut order);
        let (gone, kept) = order.split_at(order.len() / 4);
        for (n, e) in gone.iter().enumerate() {
            assert!(t.delete(e).unwrap(), "delete {n}: {e:?} not found");
            if n % 500 == 0 {
                crate::check_invariants(&mut t).unwrap();
            }
        }
        crate::check_invariants(&mut t).unwrap();
        let mut survivors = t
            .range_query(&Mbb::new(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9))
            .unwrap();
        survivors.sort_by_key(|e| (e.traj, e.seq));
        let mut want = kept.to_vec();
        want.sort_by_key(|e| (e.traj, e.seq));
        assert_eq!(survivors, want);
    }

    #[test]
    fn bulk_load_packs_tighter_and_answers_identically() {
        let mut entries: Vec<LeafEntry> = Vec::new();
        for i in 0..3000u32 {
            let x = (f64::from(i) * 13.7) % 211.0;
            let y = (f64::from(i) * 7.1) % 157.0;
            entries.push(entry(u64::from(i % 40), i / 40, f64::from(i), x, y));
        }
        let mut incremental = Rtree3D::new();
        for e in &entries {
            incremental.insert(*e).unwrap();
        }
        let mut bulk = Rtree3D::bulk_load(entries.clone()).unwrap();
        assert_eq!(bulk.num_entries(), 3000);
        assert_eq!(bulk.max_speed(), incremental.max_speed());
        crate::check_invariants(&mut bulk).unwrap();
        // Packing beats incremental construction on size.
        assert!(
            bulk.num_pages() < incremental.num_pages(),
            "bulk {} vs incremental {}",
            bulk.num_pages(),
            incremental.num_pages()
        );
        // Same answers for range queries.
        let window = Mbb::new(20.0, 20.0, 100.0, 120.0, 90.0, 900.0);
        let mut a = bulk.range_query(&window).unwrap();
        let mut b = incremental.range_query(&window).unwrap();
        let key = |e: &LeafEntry| (e.traj, e.seq);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
        // A bulk-loaded tree keeps accepting inserts and deletes.
        bulk.insert(entry(99, 0, 5000.0, 1.0, 1.0)).unwrap();
        assert!(bulk.delete(&entry(99, 0, 5000.0, 1.0, 1.0)).unwrap());
        crate::check_invariants(&mut bulk).unwrap();
    }

    #[test]
    fn bulk_load_edge_cases() {
        let empty = Rtree3D::bulk_load(Vec::new()).unwrap();
        assert!(empty.root().is_none());
        let mut single = Rtree3D::bulk_load(vec![entry(1, 0, 0.0, 0.0, 0.0)]).unwrap();
        assert_eq!(single.height(), 1);
        assert_eq!(single.num_entries(), 1);
        crate::check_invariants(&mut single).unwrap();
        // Exactly one full leaf.
        let full: Vec<LeafEntry> = (0..LEAF_CAPACITY as u32)
            .map(|i| entry(1, i, f64::from(i), f64::from(i), 0.0))
            .collect();
        let mut one_leaf = Rtree3D::bulk_load(full).unwrap();
        assert_eq!(one_leaf.height(), 1);
        assert_eq!(one_leaf.num_pages(), 1);
        crate::check_invariants(&mut one_leaf).unwrap();
    }

    #[test]
    fn stats_report_structure_and_io() {
        let mut t = Rtree3D::new();
        for i in 0..300u32 {
            t.insert(entry(u64::from(i), 0, f64::from(i), f64::from(i % 7), 0.0))
                .unwrap();
        }
        let s = t.stats();
        assert!(s.pages >= 5);
        assert_eq!(s.entries, 300);
        assert_eq!(s.size_bytes, s.pages * PAGE_SIZE);
        assert!(s.node_reads > 0);
        t.reset_stats();
        assert_eq!(t.stats().node_reads, 0);
    }
}

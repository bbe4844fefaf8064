//! The [`Netlist`] container.

use crate::element::{Element, ElementKind};
use crate::error::NetlistError;
use crate::node::{Node, NodeMap};
use crate::partition::{self, Island};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Conversion accepted by [`Netlist::add`]: either a ready-made [`Element`]
/// or the `Result` returned by the element convenience constructors.
pub trait IntoElement {
    /// Converts `self` into an element, propagating construction errors.
    ///
    /// # Errors
    ///
    /// Returns the wrapped construction error when `self` is an `Err`.
    fn into_element(self) -> Result<Element, NetlistError>;
}

impl IntoElement for Element {
    fn into_element(self) -> Result<Element, NetlistError> {
        Ok(self)
    }
}

impl IntoElement for Result<Element, NetlistError> {
    fn into_element(self) -> Result<Element, NetlistError> {
        self
    }
}

/// A flat circuit netlist: a set of named nodes and the elements connecting
/// them.
///
/// Construction is incremental: call [`Netlist::node`] to intern node names
/// and [`Netlist::add`] to append elements. Structural checks are performed
/// by [`Netlist::validate`], and Monte-Carlo island extraction by
/// [`Netlist::find_islands`].
///
/// Element names are registered in one case-insensitive index, so adding
/// or looking up an element costs O(1) whatever the size of the deck.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    title: String,
    nodes: NodeMap,
    elements: Vec<Element>,
    /// Case-folded name hash → position in `elements` of the first
    /// element with that hash. An element whose hash is already taken by
    /// a different name is left out; lookups that meet such a collision
    /// fall back to a scan.
    element_index: HashMap<u64, usize, BuildHasherDefault<FoldedHash>>,
}

/// FNV-1a over the ASCII-lowercased bytes of an element name. As the
/// index's map hasher it passes the precomputed hash through, so neither
/// adding nor looking up a name allocates.
#[derive(Default)]
struct FoldedHash(u64);

impl FoldedHash {
    fn of(name: &str) -> u64 {
        name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b.to_ascii_lowercase())).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

impl Hasher for FoldedHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the element index hashes only precomputed u64 keys")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

impl Netlist {
    /// Creates an empty netlist with the given title.
    #[must_use]
    pub fn new(title: impl Into<String>) -> Self {
        Netlist {
            title: title.into(),
            nodes: NodeMap::new(),
            elements: Vec::new(),
            element_index: HashMap::default(),
        }
    }

    /// Netlist title (free-form, taken from the first deck line when parsed).
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Interns a node name, returning its handle.
    pub fn node(&mut self, name: &str) -> Node {
        self.nodes.intern(name)
    }

    /// Looks up an existing node by name.
    #[must_use]
    pub fn find_node(&self, name: &str) -> Option<Node> {
        self.nodes.get(name)
    }

    /// Returns the user-facing name of a node.
    #[must_use]
    pub fn node_name(&self, node: Node) -> Option<&str> {
        self.nodes.name(node)
    }

    /// Total number of nodes including ground.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node map (for simulators that need to build their own vectors).
    #[must_use]
    pub fn nodes(&self) -> &NodeMap {
        &self.nodes
    }

    /// Appends an element.
    ///
    /// Accepts either an [`Element`] or the `Result` returned by the
    /// element convenience constructors, so circuits can be built without a
    /// separate `?` per constructor call.
    ///
    /// # Errors
    ///
    /// Returns the element construction error if one was passed through, or
    /// [`NetlistError::DuplicateElement`] if an element with the same
    /// (case-insensitive) name already exists.
    pub fn add(&mut self, element: impl IntoElement) -> Result<&mut Self, NetlistError> {
        let element = element.into_element()?;
        let name = element.name();
        let duplicate = match self.element_index.entry(FoldedHash::of(name)) {
            Entry::Vacant(slot) => {
                slot.insert(self.elements.len());
                false
            }
            Entry::Occupied(first) => {
                let first = *first.get();
                self.elements[first].name().eq_ignore_ascii_case(name) || self.scan(name).is_some()
            }
        };
        if duplicate {
            return Err(NetlistError::DuplicateElement {
                name: name.to_string(),
            });
        }
        self.elements.push(element);
        Ok(self)
    }

    /// All elements in insertion order.
    #[must_use]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` if the netlist has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Finds an element by (case-insensitive) name.
    #[must_use]
    pub fn element(&self, name: &str) -> Option<&Element> {
        self.position(name).map(|i| &self.elements[i])
    }

    /// Position in [`Netlist::elements`] of the element named `name`
    /// (case-insensitive), through the index.
    fn position(&self, name: &str) -> Option<usize> {
        let first = *self.element_index.get(&FoldedHash::of(name))?;
        if self.elements[first].name().eq_ignore_ascii_case(name) {
            Some(first)
        } else {
            self.scan(name)
        }
    }

    /// [`Netlist::position`] by a scan, for names whose hash collides.
    fn scan(&self, name: &str) -> Option<usize> {
        self.elements
            .iter()
            .position(|e| e.name().eq_ignore_ascii_case(name))
    }

    /// Returns the elements of a given kind predicate, e.g. all tunnel
    /// junctions.
    pub fn elements_where<'a, P>(&'a self, predicate: P) -> impl Iterator<Item = &'a Element>
    where
        P: Fn(&ElementKind) -> bool + 'a,
    {
        self.elements.iter().filter(move |e| predicate(e.kind()))
    }

    /// All tunnel junctions.
    pub fn tunnel_junctions(&self) -> impl Iterator<Item = &Element> {
        self.elements.iter().filter(|e| e.is_tunnel_junction())
    }

    /// All voltage sources.
    pub fn voltage_sources(&self) -> impl Iterator<Item = &Element> {
        self.elements.iter().filter(|e| e.is_voltage_source())
    }

    /// Set of nodes that are fixed by a voltage source (directly connected to
    /// one of its terminals, including ground).
    #[must_use]
    pub fn source_driven_nodes(&self) -> HashSet<Node> {
        let mut driven = HashSet::new();
        driven.insert(Node::GROUND);
        for vs in self.voltage_sources() {
            for &n in vs.nodes() {
                driven.insert(n);
            }
        }
        driven
    }

    /// Replaces the DC value of the named voltage source.
    ///
    /// This is how sweeps and the co-simulator update boundary conditions
    /// without rebuilding the whole netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Validation`] if there is no voltage source
    /// with that name.
    pub fn set_source_voltage(&mut self, name: &str, voltage: f64) -> Result<(), NetlistError> {
        if let Some(i) = self.position(name) {
            let element = &mut self.elements[i];
            if let ElementKind::VoltageSource { .. } = element.kind() {
                let nodes = element.nodes().to_vec();
                *element = Element::voltage_source(
                    element.name().to_string(),
                    nodes[0],
                    nodes[1],
                    voltage,
                )?;
                return Ok(());
            }
        }
        Err(NetlistError::Validation {
            message: format!("no voltage source named `{name}`"),
        })
    }

    /// Runs the structural validation checks (see [`crate::validate`]).
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        crate::validate::validate(self)
    }

    /// Finds the single-electron islands: maximal groups of non-source nodes
    /// connected purely through capacitive elements, at least one of which is
    /// a tunnel junction (see [`crate::partition`]).
    #[must_use]
    pub fn find_islands(&self) -> Vec<Island> {
        partition::find_islands(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;

    fn single_set() -> Netlist {
        let mut n = Netlist::new("set");
        let d = n.node("d");
        let i = n.node("i");
        let g = n.node("g");
        n.add(Element::voltage_source("VD", d, Node::GROUND, 1e-3))
            .unwrap();
        n.add(Element::voltage_source("VG", g, Node::GROUND, 0.0))
            .unwrap();
        n.add(Element::tunnel_junction("J1", d, i, 1e-18, 1e5))
            .unwrap();
        n.add(Element::tunnel_junction("J2", i, Node::GROUND, 1e-18, 1e5))
            .unwrap();
        n.add(Element::capacitor("CG", g, i, 0.5e-18)).unwrap();
        n
    }

    #[test]
    fn add_and_lookup_elements() {
        let n = single_set();
        assert_eq!(n.len(), 5);
        assert!(n.element("j1").is_some());
        assert!(n.element("nope").is_none());
        assert_eq!(n.tunnel_junctions().count(), 2);
        assert_eq!(n.voltage_sources().count(), 2);
    }

    #[test]
    fn duplicate_names_rejected_case_insensitively() {
        let mut n = single_set();
        let d = n.node("d");
        let err = n
            .add(Element::resistor("j1", d, Node::GROUND, 1e3))
            .unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateElement { .. }));
    }

    #[test]
    fn names_differing_only_in_case_are_duplicates() {
        let mut n = single_set();
        let (d, g) = (n.node("d"), n.node("g"));
        for name in ["vd", "Vd", "cg", "cG", "J2"] {
            let err = n.add(Element::capacitor(name, d, g, 1e-18)).unwrap_err();
            assert_eq!(
                err,
                NetlistError::DuplicateElement { name: name.into() },
                "the error names the rejected spelling"
            );
        }
        assert_eq!(n.len(), 5, "a rejected element is not appended");
        assert_eq!(n.element("cg").unwrap().name(), "CG", "first spelling kept");

        let mut copy = n.clone();
        assert!(matches!(
            copy.add(Element::resistor("j1", d, g, 1e3)),
            Err(NetlistError::DuplicateElement { .. })
        ));
        copy.add(Element::resistor("R1", d, g, 1e3)).unwrap();
        assert!(copy.element("r1").is_some());
        assert!(n.element("r1").is_none(), "clones keep separate indexes");
    }

    #[test]
    fn names_colliding_in_the_index_stay_distinct() {
        let mut n = Netlist::new("collide");
        let (a, b) = (n.node("a"), n.node("b"));
        n.add(Element::capacitor("CA", a, b, 1e-18)).unwrap();
        // Pretend "CB" folds to the same hash as "CA": its slot is taken.
        n.element_index.insert(FoldedHash::of("cb"), 0);
        n.add(Element::capacitor("CB", a, b, 2e-18)).unwrap();
        assert_eq!(n.element("cb").unwrap().name(), "CB");
        assert_eq!(n.element("ca").unwrap().name(), "CA");
        assert!(matches!(
            n.add(Element::capacitor("cb", a, b, 3e-18)),
            Err(NetlistError::DuplicateElement { .. })
        ));
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn lookups_find_mixed_case_names_through_the_index() {
        let mut n = Netlist::new("mixed");
        let (a, b) = (n.node("a"), n.node("b"));
        n.add(Element::voltage_source("VdRain", a, Node::GROUND, 0.0))
            .unwrap();
        n.add(Element::capacitor("cGate", a, b, 1e-18)).unwrap();
        for name in ["VdRain", "vdrain", "VDRAIN"] {
            assert_eq!(n.element(name).unwrap().name(), "VdRain");
        }
        assert_eq!(n.element("CGATE").unwrap().name(), "cGate");
        n.set_source_voltage("VDRAIN", 0.125).unwrap();
        match n.element("vdrain").unwrap().kind() {
            ElementKind::VoltageSource { voltage } => assert_eq!(*voltage, 0.125),
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(n.element("vdrain").unwrap().name(), "VdRain");
        assert!(n.set_source_voltage("CGATE", 1.0).is_err());
        assert!(n.element("vdrain2").is_none());
    }

    #[test]
    fn source_driven_nodes_include_ground_and_source_terminals() {
        let n = single_set();
        let driven = n.source_driven_nodes();
        assert!(driven.contains(&Node::GROUND));
        assert!(driven.contains(&n.find_node("d").unwrap()));
        assert!(driven.contains(&n.find_node("g").unwrap()));
        assert!(!driven.contains(&n.find_node("i").unwrap()));
    }

    #[test]
    fn set_source_voltage_updates_value() {
        let mut n = single_set();
        n.set_source_voltage("VG", 0.25).unwrap();
        match n.element("VG").unwrap().kind() {
            ElementKind::VoltageSource { voltage } => assert_eq!(*voltage, 0.25),
            other => panic!("unexpected kind {other:?}"),
        }
        assert!(n.set_source_voltage("VX", 1.0).is_err());
        assert!(n.set_source_voltage("J1", 1.0).is_err());
    }

    #[test]
    fn node_names_round_trip() {
        let mut n = Netlist::new("t");
        let a = n.node("alpha");
        assert_eq!(n.node_name(a), Some("alpha"));
        assert_eq!(n.find_node("ALPHA"), Some(a));
        assert_eq!(n.node_count(), 2);
    }

    #[test]
    fn empty_netlist_reports_empty() {
        let n = Netlist::new("x");
        assert!(n.is_empty());
        assert_eq!(n.elements().len(), 0);
    }

    #[test]
    fn elements_where_filters_by_kind() {
        let n = single_set();
        let caps: Vec<_> = n
            .elements_where(|k| matches!(k, ElementKind::Capacitor { .. }))
            .collect();
        assert_eq!(caps.len(), 1);
        assert_eq!(caps[0].name(), "CG");
    }
}
